package repro

import (
	"testing"

	"repro/internal/cleaning"
	"repro/internal/experiments"
	"repro/internal/serve"
)

// TestCPCleanDriversLockstep runs one CPClean task through both drivers of
// the greedy loop — the library's cleaning.CPClean and a serving-layer clean
// session stepped with Next to completion — and requires the same decisions:
// the same rows in the same order, the same oracle candidates and the same
// examined hypotheses. The step and scan counts are pinned, so a change that
// moves a decision in both drivers at once fails here too.
func TestCPCleanDriversLockstep(t *testing.T) {
	const wantSteps, wantExamined = 29, 26367
	spec, err := experiments.SpecByName("Supreme")
	if err != nil {
		t.Fatal(err)
	}
	task, err := experiments.BuildTask(spec, experiments.Tiny, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cleaning.CPClean(task, cleaning.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	s := serve.NewServer(serve.Config{})
	defer s.Close()
	if _, err := s.Register("supreme", task.Dataset(), task.Kernel, task.K); err != nil {
		t.Fatal(err)
	}
	sess, err := s.StartCleanSession("supreme", serve.CleanRequest{Truth: task.OracleWorld(), ValPoints: task.ValX})
	if err != nil {
		t.Fatal(err)
	}
	var steps []serve.CleanStep
	for done := false; !done; {
		var batch []serve.CleanStep
		if batch, done, err = sess.Next(8); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, batch...)
	}

	if len(res.Order) != wantSteps || len(steps) != wantSteps {
		t.Fatalf("CPClean cleaned %d rows, the session %d; want %d", len(res.Order), len(steps), wantSteps)
	}
	var examined int64
	for i, st := range steps {
		row := res.Order[i]
		if st.Row != row || st.Candidate != task.Repairs.Truth[row] {
			t.Fatalf("step %d: session cleaned (row %d, candidate %d), CPClean (row %d, candidate %d)",
				i+1, st.Row, st.Candidate, row, task.Repairs.Truth[row])
		}
		examined += st.ExaminedHypotheses
	}
	if res.ExaminedHypotheses != wantExamined || examined != wantExamined {
		t.Fatalf("examined hypotheses: CPClean %d, session %d; want %d", res.ExaminedHypotheses, examined, wantExamined)
	}
	if st := sess.Status(); st.ExaminedHypotheses != wantExamined {
		t.Fatalf("session status reports %d examined hypotheses, want %d", st.ExaminedHypotheses, wantExamined)
	}
}
