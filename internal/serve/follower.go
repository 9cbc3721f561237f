package serve

// Follower mode: this file is the apply side of WAL shipping (see
// internal/replica). A follower's tailer delivers the leader's journal one
// record at a time, or a snapshot when the leader compacted past the
// follower's cursor. Both land through the journal's one interpreter —
// applyRecord and applySnapshot in durable.go, the functions restart
// recovery folds the local WAL through — and each record is then
// re-journaled verbatim into the follower's own WAL, so a restart recovers
// the follower's state from its own directory and resumes from a durable
// cursor instead of re-bootstrapping.
//
// The invariant that makes follower reads bit-identical to leader reads:
// both sides derive every answer from the same journal prefix through the
// same deterministic code (the same apply functions, the exact
// step-idempotency rule, the history-pinned session query path). The one
// decision the follower makes on its own is what a step gap means: recovery
// logs it and goes on, a follower fails the tail loudly rather than letting
// the replica drift.

import (
	"encoding/json"
	"fmt"

	"repro/internal/durable"
	"repro/internal/replica"
)

// writeGate rejects state-changing operations on a follower. Every write
// belongs on the leader — its journal is the single source of truth that
// this server replays — so the caller gets ErrNotLeader (HTTP 421) naming
// the leader to retry against.
func (s *Server) writeGate() error {
	if s.cfg.FollowURL == "" {
		return nil
	}
	return fmt.Errorf("%w: read-only follower; retry against the leader at %s", ErrNotLeader, s.LeaderURL())
}

// LeaderURL is the best known leader base URL: what the leader advertises on
// its ship stream when known, the configured follow URL otherwise. Empty on
// anything that is not a follower.
func (s *Server) LeaderURL() string {
	if s.tailer != nil {
		if st := s.tailer.Status(); st.LeaderURL != "" {
			return st.LeaderURL
		}
	}
	return s.cfg.FollowURL
}

// applyShipped is the tailer's Apply hook: fold one shipped record into the
// in-memory state, then re-journal it verbatim. Idempotent (reconnects and
// restarts redeliver), and memory-first so a concurrent local compaction can
// never snapshot a state missing a record its log already sealed. A step gap
// is returned, which stops the tail.
func (s *Server) applyShipped(rec durable.Record) error {
	if err := s.applyRecord(rec); err != nil {
		return err
	}
	if err := s.journal.appendRaw(rec); err != nil {
		return err
	}
	s.journal.maybeCompact(s.snapshotState)
	return nil
}

// bootstrapFromLeader is the tailer's ApplySnapshot hook (fresh follower, or
// our cursor was compacted away): decode the leader's snapshot, replace the
// follower's state with it, then reset the local WAL behind the new state —
// a forced compaction, so a restart recovers this snapshot instead of the
// stale pre-bootstrap log.
func (s *Server) bootstrapFromLeader(payload []byte) error {
	var ps persistedState
	if err := json.Unmarshal(payload, &ps); err != nil {
		return fmt.Errorf("serve: undecodable leader snapshot: %w", err)
	}
	if err := s.applySnapshot(ps); err != nil {
		return err
	}
	if err := s.journal.store.Compact(s.snapshotState); err != nil {
		return fmt.Errorf("serve: persisting bootstrapped state: %w", err)
	}
	return nil
}

// noteApplied is the tailer's OnAdvance hook. Whenever the follower reaches
// the leader's durable frontier it fsyncs its own journal and persists the
// replication cursor — in that order, so the cursor on disk never points
// past records the local WAL could still lose. Mid-stream advances skip the
// save: redelivery from an older cursor is idempotent, losing locally
// unsynced records is not.
func (s *Server) noteApplied(c durable.Cursor, caughtUp bool) {
	if !caughtUp || c == s.lastSaved {
		return
	}
	if err := s.journal.store.Sync(); err != nil {
		s.logf("serve: replica: syncing journal before cursor save: %v", err)
		return
	}
	if err := replica.SaveCursor(s.cursorPath, c); err != nil {
		s.logf("serve: replica: persisting cursor %s: %v", c, err)
		return
	}
	s.lastSaved = c
}
