package cpu

import (
	"strings"
	"testing"
)

// TestFeatureConsistency checks the Has* helpers against their definition:
// each demands both the capability bit and the OS state bit, and AVX-512
// implies the YMM prerequisites on any real machine.
func TestFeatureConsistency(t *testing.T) {
	f := X86
	if f.HasAVX2() && (!f.AVX2 || !f.OSYMM) {
		t.Error("HasAVX2 true without AVX2+OSYMM")
	}
	if f.HasAVX512() && (!f.AVX512F || !f.AVX512DQ || !f.AVX512VL || !f.OSZMM) {
		t.Error("HasAVX512 true without F+DQ+VL+OSZMM")
	}
	if f.OSZMM && !f.OSYMM {
		t.Error("OSZMM without OSYMM: XCR0 ZMM state requires the AVX state bits")
	}
	t.Logf("detected: %s", f)
}

func TestFeatureString(t *testing.T) {
	if got := (Features{}).String(); got != "none" {
		t.Errorf("empty feature set = %q, want \"none\"", got)
	}
	full := Features{AVX2: true, FMA: true, AVX512F: true, AVX512DQ: true, AVX512VL: true, OSYMM: true, OSZMM: true}
	s := full.String()
	for _, want := range []string{"avx2", "fma", "avx512f", "avx512dq", "avx512vl", "os-ymm", "os-zmm"} {
		if !strings.Contains(s, want) {
			t.Errorf("full feature string %q missing %q", s, want)
		}
	}
}

// TestOverride validates the MICCO_KERNEL parse: recognized tiers pass
// through (case-insensitively), anything else degrades to "".
func TestOverride(t *testing.T) {
	cases := map[string]string{
		"":        "",
		"scalar":  "scalar",
		"avx2":    "avx2",
		"fma":     "",
		"avx512":  "avx512",
		" AVX2 ":  "avx2",
		"sse":     "",
		"fastest": "",
	}
	for env, want := range cases {
		t.Setenv(EnvKernel, env)
		if got := Override(); got != want {
			t.Errorf("Override() with %s=%q = %q, want %q", EnvKernel, env, got, want)
		}
	}
}
