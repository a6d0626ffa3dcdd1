package obs_test

import (
	"testing"

	"micco/internal/gpusim"
	"micco/internal/obs"
)

// TestFlightRecorderAllocs pins the recorder's per-event cost: recording
// into a built ring allocates nothing, and neither do the disabled paths
// (no recorder attached, nil recorder) nor a fault event fed through a
// cluster's sink into an attached recorder — the acceptance bar for
// "always-on" observability.
func TestFlightRecorderAllocs(t *testing.T) {
	fr := obs.NewFlightRecorder()
	ev := &obs.Event{Kind: obs.EventKernel, Device: 1, Tensor: 42, Start: 1, End: 2, FLOPs: 100}
	if n := testing.AllocsPerRun(200, func() { fr.RecordEvent(ev) }); n != 0 {
		t.Errorf("RecordEvent allocs/op = %v, want 0", n)
	}
	var nilFR *obs.FlightRecorder
	if n := testing.AllocsPerRun(200, func() { nilFR.RecordEvent(ev) }); n != 0 {
		t.Errorf("nil RecordEvent allocs/op = %v, want 0", n)
	}
	r := obs.New() // no recorder attached: probe is one atomic load
	if n := testing.AllocsPerRun(200, func() {
		if fr := r.FlightRecorder(); fr != nil {
			fr.RecordEvent(ev)
		}
	}); n != 0 {
		t.Errorf("unattached probe allocs/op = %v, want 0", n)
	}
	c, err := gpusim.NewCluster(gpusim.MI100(2))
	if err != nil {
		t.Fatal(err)
	}
	r.SetFlightRecorder(fr)
	c.SetObserver(r)
	if n := testing.AllocsPerRun(200, func() { _ = c.DegradeLink(0.5) }); n != 0 {
		t.Errorf("fault event through the cluster's sink allocs/op = %v, want 0", n)
	}
	if got := fr.Snapshot().Events; got[len(got)-1].Note() != "link-degrade x0.5" {
		t.Errorf("the recorder's last event is %+v, want the link degrade", got[len(got)-1])
	}
}
