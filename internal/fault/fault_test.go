package fault

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	p := &Plan{
		Seed:  42,
		Retry: &Retry{Max: 3, BaseSeconds: 2e-3, CapSeconds: 8e-3},
		Events: []Event{
			{Kind: DeviceLoss, Stage: 1, Pair: 3, Device: 2},
			{Kind: DeviceRestore, Stage: 2, Pair: -1, Device: 2},
			{Kind: LinkDegrade, Time: 0.5, Factor: 0.25},
			{Kind: MemShrink, Stage: 0, Device: 1, Factor: 0.5},
			{Kind: TransientTransfer, Stage: 2, Pair: 0, Failures: 4},
		},
	}
	var buf bytes.Buffer
	if err := Save(&buf, p); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Kinds serialize as names, not numbers.
	if !strings.Contains(buf.String(), `"device-loss"`) {
		t.Errorf("serialized plan lacks named kind:\n%s", buf.String())
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"events":[{"kind":"device-loss","gpu":3}]}`))
	if err == nil {
		t.Fatal("Load accepted an unknown field")
	}
}

func TestLoadRejectsUnknownKind(t *testing.T) {
	_, err := Load(strings.NewReader(`{"events":[{"kind":"meteor-strike"}]}`))
	if err == nil {
		t.Fatal("Load accepted an unknown kind")
	}
}

func TestValidate(t *testing.T) {
	ok := &Plan{Events: []Event{
		{Kind: DeviceLoss, Device: 3},
		{Kind: LinkDegrade, Factor: 0.5},
		{Kind: MemShrink, Device: 0, Factor: 1},
		{Kind: TransientTransfer, Failures: 1},
	}}
	if err := ok.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []Plan{
		{Events: []Event{{Kind: DeviceLoss, Device: 4}}},                    // device out of range
		{Events: []Event{{Kind: MemShrink, Device: 0, Factor: 1.5}}},        // factor > 1
		{Events: []Event{{Kind: LinkDegrade, Factor: 0}}},                   // zero factor
		{Events: []Event{{Kind: TransientTransfer}}},                        // no failures
		{Events: []Event{{Kind: Kind(99)}}},                                 // unknown kind
		{Events: []Event{{Kind: DeviceLoss, Time: -1}}},                     // negative time
		{Events: []Event{{Kind: DeviceLoss, Pair: -2}}},                     // pair below -1
		{Retry: &Retry{Max: 1, BaseSeconds: 0, CapSeconds: 1}},              // zero base
		{Retry: &Retry{Max: 1, BaseSeconds: 2e-3, CapSeconds: 1e-3}},        // cap < base
		{Retry: &Retry{Max: -1, BaseSeconds: 1e-3, CapSeconds: 1e-3}},       // negative max
		{Events: []Event{{Kind: LinkDegrade, Factor: math.NaN()}}},          // NaN factor
		{Events: []Event{{Kind: LinkDegrade, Factor: math.Inf(1)}}},         // infinite factor
		{Events: []Event{{Kind: MemShrink, Factor: math.NaN()}}},            // NaN fraction
		{Events: []Event{{Kind: DeviceLoss, Time: math.NaN()}}},             // NaN time
		{Events: []Event{{Kind: DeviceLoss, Time: math.Inf(1)}}},            // infinite time
		{Retry: &Retry{Max: 1, BaseSeconds: math.NaN(), CapSeconds: 1}},     // NaN base
		{Retry: &Retry{Max: 1, BaseSeconds: 1e-3, CapSeconds: math.Inf(1)}}, // infinite cap
	}
	for i := range bad {
		if err := bad[i].Validate(4); !errors.Is(err, ErrInvalidPlan) {
			t.Errorf("bad plan %d: err = %v, want ErrInvalidPlan", i, err)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(4); !errors.Is(err, ErrInvalidPlan) {
		t.Errorf("nil plan: err = %v, want ErrInvalidPlan", err)
	}
}

func TestRetryBackoff(t *testing.T) {
	r := Retry{Max: 8, BaseSeconds: 1e-3, CapSeconds: 50e-3}
	want := []float64{1e-3, 2e-3, 4e-3, 8e-3, 16e-3, 32e-3, 50e-3, 50e-3}
	for i, w := range want {
		if got := r.Backoff(i + 1); math.Abs(got-w) > 1e-15 {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := r.Backoff(0); got != r.BaseSeconds {
		t.Errorf("Backoff(0) = %v, want base %v", got, r.BaseSeconds)
	}
	// A base above the cap is clamped to the cap from the first attempt.
	clamped := Retry{Max: 1, BaseSeconds: 5, CapSeconds: 1}
	if got := clamped.Backoff(1); got != 1 {
		t.Errorf("clamped Backoff(1) = %v, want 1", got)
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	var nilPlan *Plan
	if got := nilPlan.RetryPolicy(); got != DefaultRetry() {
		t.Errorf("nil plan retry = %+v, want default", got)
	}
	p := &Plan{}
	if got := p.RetryPolicy(); got != DefaultRetry() {
		t.Errorf("no-override retry = %+v, want default", got)
	}
	over := Retry{Max: 2, BaseSeconds: 1, CapSeconds: 2}
	p.Retry = &over
	if got := p.RetryPolicy(); got != over {
		t.Errorf("override retry = %+v, want %+v", got, over)
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := GenConfig{Seed: 7, Stages: 5, PairsPerStage: 12, Devices: 4, Events: 9}
	a := Generate(cfg)
	b := Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("Generate is not deterministic for equal configs")
	}
	if len(a.Events) < cfg.Events {
		t.Fatalf("generated %d events, want >= %d", len(a.Events), cfg.Events)
	}
	if err := a.Validate(cfg.Devices); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	for i, e := range a.Events {
		if e.Kind == DeviceLoss && e.Device == 0 {
			t.Errorf("event %d loses device 0; the generator must keep one survivor", i)
		}
	}
	if c := Generate(GenConfig{Seed: 8, Stages: 5, PairsPerStage: 12, Devices: 4, Events: 9}); reflect.DeepEqual(a, c) {
		t.Error("different seeds generated identical plans")
	}
}
