package horovod_test

import (
	"strings"
	"testing"
	"time"

	"segscale/internal/core"
	"segscale/internal/horovod"
)

// The HOROVOD_* variables are parsed and rendered by the knob table
// (internal/core/knobs.go); these tests hold Config's side of it.

func TestEnvRoundTrip(t *testing.T) {
	c := horovod.Default()
	c.FusionThreshold = 128 << 20
	c.CycleTime = 3500 * time.Microsecond
	c.Hierarchical = true
	c.ResponseCache = true
	env := core.Knobs{Horovod: &c}.Render(false)
	d := horovod.Default()
	if err := (core.Knobs{Horovod: &d}).Apply(env); err != nil {
		t.Fatal(err)
	}
	if d != c {
		t.Fatalf("round trip through %q: %+v vs %+v", env, d, c)
	}
}

func TestApplyEnvErrors(t *testing.T) {
	for _, bad := range []string{
		"NOEQ", "HOROVOD_CYCLE_TIME=zero", "HOROVOD_CYCLE_TIME=-1", "HOROVOD_CYCLE_TIME=0",
		"HOROVOD_FUSION_THRESHOLD=x", "HOROVOD_CACHE_CAPACITY=-2", "HOROVOD_HIERARCHICAL_ALLREDUCE=true",
	} {
		c := horovod.Default()
		err := core.Knobs{Horovod: &c}.Apply([]string{bad})
		if name, _, _ := strings.Cut(bad, "="); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%q: error %v, want one naming %s", bad, err, name)
		}
		if c != horovod.Default() {
			t.Errorf("%q changed the knobs: %+v", bad, c)
		}
	}
	c := horovod.Default()
	if err := (core.Knobs{Horovod: &c}).Apply([]string{"UNRELATED=1"}); err != nil {
		t.Errorf("unknown var rejected: %v", err)
	}
}
