package chaos_test

import (
	"os"
	"strconv"
	"testing"

	"micco"
	"micco/internal/chaos"
)

// soakSeeds resolves the seed count: MICCO_SOAK_SEEDS overrides (that is
// how `make soak` and the CI soak step scale the run), default 3 — the
// acceptance floor of the robustness layer.
func soakSeeds(t *testing.T) []int64 {
	t.Helper()
	n := 3
	if s := os.Getenv("MICCO_SOAK_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("MICCO_SOAK_SEEDS=%q is not a positive integer", s)
		}
		n = v
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(1000 + i)
	}
	return seeds
}

// TestChaosSoak is the acceptance soak: every registered scheduler and
// numeric pool widths 1 and 4 (Parallelism), each iteration killed up to twice at seeded-random pair boundaries and
// resumed from the durable checkpoint file alone, landing on the
// fault-free fingerprint bit for bit. Each kill's checkpoint
// image is additionally corruption-probed against the typed decode
// errors.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak harness is not a -short test")
	}
	seeds := soakSeeds(t)
	res, err := chaos.Soak(chaos.Config{
		Seeds: seeds,
		Dir:   t.TempDir(),
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatalf("soak failed after %d iterations: %v", res.Iterations, err)
	}
	wantIters := len(seeds) * len(micco.SchedulerNames()) * 2
	if res.Iterations != wantIters {
		t.Errorf("iterations = %d, want %d (seeds × schedulers × pools)", res.Iterations, wantIters)
	}
	if res.Kills == 0 || res.Resumes != res.Kills || res.CorruptionProbes != res.Kills {
		t.Errorf("kills=%d resumes=%d probes=%d: every kill must be probed and resumed, and some must happen",
			res.Kills, res.Resumes, res.CorruptionProbes)
	}
	t.Logf("soak: %d iterations, %d kills, %d disk resumes, %d corruption probes",
		res.Iterations, res.Kills, res.Resumes, res.CorruptionProbes)
}
