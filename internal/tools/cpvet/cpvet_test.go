package cpvet_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tools/cpvet"
	"repro/internal/tools/cpvet/vettest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestMapOrderDeterministicPackage(t *testing.T) {
	cfg := &cpvet.Config{DeterministicPkgs: map[string]bool{"fix/maporder": true}}
	vettest.Run(t, fixture("maporder"), "fix/maporder", []*cpvet.Analyzer{cpvet.MapOrder}, cfg)
}

func TestMapOrderFunctionTag(t *testing.T) {
	// No deterministic packages: only //cpvet:deterministic functions are in
	// scope.
	vettest.Run(t, fixture("maporderfunc"), "fix/maporderfunc", []*cpvet.Analyzer{cpvet.MapOrder}, &cpvet.Config{})
}

// TestMapOrderCacheScope pins the deterministic-scope rule for cache code
// that feeds replayed scans: a //cpvet:deterministic cache lookup may not
// range over its cache map directly, while the untagged sorted-keys
// collector it is supposed to call — whose own map range is made harmless by
// the sort — stays out of scope.
func TestMapOrderCacheScope(t *testing.T) {
	vettest.Run(t, fixture("cacheorder"), "fix/cacheorder", []*cpvet.Analyzer{cpvet.MapOrder}, &cpvet.Config{})
}

func TestCtxFlow(t *testing.T) {
	cfg := &cpvet.Config{CtxPkgs: map[string]bool{"fix/ctxflow": true}}
	vettest.Run(t, fixture("ctxflow"), "fix/ctxflow", []*cpvet.Analyzer{cpvet.CtxFlow}, cfg)
}

func TestErrMap(t *testing.T) {
	cfg := &cpvet.Config{
		SentinelPkg:    "fix/errmap",
		StatusFunc:     "errStatus",
		CloseCheckPkgs: map[string]bool{"fix/errmap": true},
	}
	vettest.Run(t, fixture("errmap"), "fix/errmap", []*cpvet.Analyzer{cpvet.ErrMap}, cfg)
}

func TestErrMapMissingStatusFunc(t *testing.T) {
	cfg := &cpvet.Config{SentinelPkg: "fix/errmapnofunc", StatusFunc: "errStatus"}
	vettest.Run(t, fixture("errmapnofunc"), "fix/errmapnofunc", []*cpvet.Analyzer{cpvet.ErrMap}, cfg)
}

func TestWALFrame(t *testing.T) {
	cfg := &cpvet.Config{WALPkg: "fix/walframe"}
	vettest.Run(t, fixture("walframe"), "fix/walframe", []*cpvet.Analyzer{cpvet.WALFrame}, cfg)
}

func TestWALFrameClient(t *testing.T) {
	cfg := &cpvet.Config{WALClientPkgs: map[string]bool{"fix/walclient": true}}
	vettest.Run(t, fixture("walclient"), "fix/walclient", []*cpvet.Analyzer{cpvet.WALFrame}, cfg)
}

func TestNoWallTime(t *testing.T) {
	cfg := &cpvet.Config{DeterministicPkgs: map[string]bool{"fix/nowalltime": true}}
	vettest.Run(t, fixture("nowalltime"), "fix/nowalltime", []*cpvet.Analyzer{cpvet.NoWallTime}, cfg)
}

func TestLockHeld(t *testing.T) {
	cfg := &cpvet.Config{ConcurrencyPkgs: map[string]bool{"fix/lockheld": true}}
	vettest.Run(t, fixture("lockheld"), "fix/lockheld", []*cpvet.Analyzer{cpvet.LockHeld}, cfg)
}

func TestUnlockPath(t *testing.T) {
	cfg := &cpvet.Config{ConcurrencyPkgs: map[string]bool{"fix/unlockpath": true}}
	vettest.Run(t, fixture("unlockpath"), "fix/unlockpath", []*cpvet.Analyzer{cpvet.UnlockPath}, cfg)
}

func TestLockOrder(t *testing.T) {
	cfg := &cpvet.Config{ConcurrencyPkgs: map[string]bool{"fix/lockorder": true}}
	vettest.Run(t, fixture("lockorder"), "fix/lockorder", []*cpvet.Analyzer{cpvet.LockOrder}, cfg)
}

// TestLockOrderSeeded pins the Config.LockOrder mechanism: the canonical
// Store.mu → Session.mu edge comes from configuration, and only the
// inverted acquisition in the fixture is reported — the forward direction
// stays clean even while the cycle exists.
func TestLockOrderSeeded(t *testing.T) {
	cfg := &cpvet.Config{
		ConcurrencyPkgs: map[string]bool{"fix/lockorderseed": true},
		LockOrder: [][2]string{
			{"fix/lockorderseed.Store.mu", "fix/lockorderseed.Session.mu"},
		},
	}
	vettest.Run(t, fixture("lockorderseed"), "fix/lockorderseed", []*cpvet.Analyzer{cpvet.LockOrder}, cfg)
}

func TestBlockedLock(t *testing.T) {
	cfg := &cpvet.Config{
		HotPathPkgs: map[string]bool{"fix/blockedlock": true},
		BlockingCalls: map[string]bool{
			"time.Sleep":   true,
			"os.File.Sync": true,
		},
	}
	vettest.Run(t, fixture("blockedlock"), "fix/blockedlock", []*cpvet.Analyzer{cpvet.BlockedLock}, cfg)
}

func TestGoroutine(t *testing.T) {
	cfg := &cpvet.Config{GoroutinePkgs: map[string]bool{"fix/goroutine": true}}
	vettest.Run(t, fixture("goroutine"), "fix/goroutine", []*cpvet.Analyzer{cpvet.Goroutine}, cfg)
}

// TestRepoLintsClean is the integration check behind `make verify-static`:
// the full suite with the repository's own config must report nothing on the
// repository itself.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list over the whole module")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := cpvet.Run(root, []string{"./..."}, cpvet.All(), cpvet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
