package serve

import (
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/replica"
)

// ServerStats is the GET /v1/stats payload: registry and session counts,
// per-dataset engine-pool counters (cache hits, byte budgets, sweep-plan
// reuse), the aggregated session query-memo totals, and — for a
// durable server — the WAL health metrics (fsync count/latency, segment and
// snapshot counts, last replay cost).
type ServerStats struct {
	Datasets      int                    `json:"datasets"`
	CleanSessions int                    `json:"clean_sessions"`
	Pools         map[string][]PoolStats `json:"pools,omitempty"`
	// SessionQueries aggregates every live session's pin-state query memo.
	SessionQueries SessionQueryStats `json:"session_queries"`
	// SweepWorkers echoes Config.SweepWorkers (0 = sequential sweeps); Sweep
	// totals the span-parallel sweep counters — parallel sweeps run, spans
	// executed, spans stolen across workers — over every dataset pool and
	// live session.
	SweepWorkers int             `json:"sweep_workers"`
	Sweep        core.SweepStats `json:"sweep"`
	// ResultCache is present only when Config.ResultCacheBytes enables the
	// server-wide query result cache: entry/byte occupancy against the budget
	// plus lifetime hit/miss/eviction counts.
	ResultCache *ResultCacheStats `json:"result_cache,omitempty"`
	// WAL is present only when the server runs with a data directory.
	WAL *durable.Metrics `json:"wal,omitempty"`
	// Streams totals runOrdered's ordered fan-out counters across every
	// batch query (dataset- and session-level, buffered and NDJSON alike).
	Streams StreamStats `json:"streams"`
	// Replication is present on a durable leader (role "leader": ship-stream
	// counters and the durable WAL tip) and on a follower (role "follower":
	// applied cursor, record lag behind the leader, last apply error).
	Replication *ReplicationStats `json:"replication,omitempty"`
}

// ReplicationStats is the /v1/stats replication block.
type ReplicationStats struct {
	// Role is "leader" (shipping this WAL to followers) or "follower"
	// (tailing FollowURL).
	Role string `json:"role"`
	// Follower side.
	FollowURL      string `json:"follow_url,omitempty"`
	LeaderURL      string `json:"leader_url,omitempty"`
	Connected      bool   `json:"connected,omitempty"`
	AppliedSegment int    `json:"applied_segment,omitempty"`
	AppliedOffset  int64  `json:"applied_offset,omitempty"`
	AppliedRecords int64  `json:"applied_records,omitempty"`
	// LagRecords is the record distance to the leader's durable frontier as
	// of the last envelope (-1 before the first one arrives).
	LagRecords     int64  `json:"lag_records"`
	Bootstraps     int64  `json:"bootstraps,omitempty"`
	LastApplyError string `json:"last_apply_error,omitempty"`
	// Leader side: the durable WAL tip followers can have caught up to, plus
	// ship-stream counters.
	TipSegment int                `json:"tip_segment,omitempty"`
	TipOffset  int64              `json:"tip_offset,omitempty"`
	Ship       *replica.ShipStats `json:"ship,omitempty"`
}

// replicationStats assembles the role-appropriate replication block (nil on
// an in-memory server).
func (s *Server) replicationStats() *ReplicationStats {
	switch {
	case s.tailer != nil:
		ts := s.tailer.Status()
		return &ReplicationStats{
			Role:           "follower",
			FollowURL:      s.cfg.FollowURL,
			LeaderURL:      ts.LeaderURL,
			Connected:      ts.Connected,
			AppliedSegment: ts.Cursor.Segment,
			AppliedOffset:  ts.Cursor.Offset,
			AppliedRecords: ts.AppliedRecords,
			LagRecords:     ts.LagRecords,
			Bootstraps:     ts.Bootstraps,
			LastApplyError: ts.LastErr,
		}
	case s.shipper != nil:
		tip, _ := s.journal.store.SyncedTip()
		ship := s.shipper.Stats()
		return &ReplicationStats{
			Role:       "leader",
			TipSegment: tip.Segment,
			TipOffset:  tip.Offset,
			Ship:       &ship,
		}
	}
	return nil
}

// Stats snapshots the server's serving and durability counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{Pools: make(map[string][]PoolStats)}
	s.mu.RLock()
	datasets := make([]*Dataset, 0, len(s.datasets))
	for _, ds := range s.datasets {
		datasets = append(datasets, ds)
	}
	s.mu.RUnlock()
	st.Datasets = len(datasets)
	st.SweepWorkers = s.cfg.SweepWorkers
	for _, ds := range datasets {
		if pools := ds.Stats(); len(pools) > 0 {
			st.Pools[ds.Name()] = pools
			for _, ps := range pools {
				st.Sweep.Add(ps.Sweep)
			}
		}
	}
	st.CleanSessions = s.CleanSessionCount()
	if s.results != nil {
		rs := s.results.stats()
		st.ResultCache = &rs
	}
	st.SessionQueries = s.sessions.queryStatsTotals()
	st.Sweep.Add(st.SessionQueries.Sweep)
	if s.journal != nil {
		m := s.journal.store.Metrics()
		st.WAL = &m
	}
	st.Streams = s.streams.snapshot()
	st.Replication = s.replicationStats()
	return st
}

// queryStatsTotals sums the query-memo counters of every live session.
func (st *sessionStore) queryStatsTotals() SessionQueryStats {
	st.mu.Lock()
	sessions := make([]*Session, 0, len(st.live))
	for _, sess := range st.live {
		sessions = append(sessions, sess)
	}
	st.mu.Unlock()
	var total SessionQueryStats
	for _, sess := range sessions {
		qs := sess.QueryStats()
		total.Queries += qs.Queries
		total.Retained.Add(qs.Retained)
		total.Sweep.Add(qs.Sweep)
	}
	return total
}
