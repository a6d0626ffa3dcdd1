package main

import (
	"fmt"
	"go/token"
	"slices"
	"strings"
	"testing"
)

const fixture = `package p

const limit = 3

func F(x int) int {
	switch x {
	case 1:
		return 2
	}
	if x > limit {
		return x + 1
	}
	return x
}

func G() int { return limit - 1 }
`

// fixtureCover is what TestA (F(1)), TestB (F(5)) and TestC (F(0)) each
// execute of fixture, as `go test -cover` profiles them one at a time.
var fixtureCover = [3]string{`mode: set
fx/p.go:5.19,6.11 1 1
fx/p.go:7.9,8.11 1 1
fx/p.go:10.2,10.15 1 0
fx/p.go:10.15,12.3 1 0
fx/p.go:13.2,13.10 1 0
fx/p.go:16.14,16.34 1 0
`, `mode: set
fx/p.go:5.19,6.11 1 1
fx/p.go:7.9,8.11 1 0
fx/p.go:10.2,10.15 1 1
fx/p.go:10.15,12.3 1 1
fx/p.go:13.2,13.10 1 0
fx/p.go:16.14,16.34 1 0
`, `mode: set
fx/p.go:5.19,6.11 1 1
fx/p.go:7.9,8.11 1 0
fx/p.go:10.2,10.15 1 1
fx/p.go:10.15,12.3 1 0
fx/p.go:13.2,13.10 1 1
fx/p.go:16.14,16.34 1 0
`}

func TestSelectedTests(t *testing.T) {
	ms, err := enumerate(token.NewFileSet(), "p.go", []byte(fixture))
	if err != nil {
		t.Fatal(err)
	}
	cov := map[string][]int{}
	for i, p := range fixtureCover {
		cover(cov, i, []byte(p))
	}
	bs := blocks(cov, map[string][]byte{"p.go": []byte(fixture)})
	names := []string{"TestA", "TestB", "TestC"}
	got := map[string]string{} // "line:col op" -> selected tests, or "whole"
	for _, m := range ms {
		tests, whole := selected(bs, m)
		var sel []string
		for _, i := range tests {
			sel = append(sel, names[i])
		}
		if whole {
			sel = []string{"whole"}
		}
		got[fmt.Sprintf("%d:%d %s", m.line, m.col, opNames[m.op])] = strings.Join(sel, " ")
	}
	for _, c := range []struct{ why, mutant, want string }{
		{"package-level const: the whole stage", "3:15 inc", "whole"},
		{"case expression, in no block: every test that enters F", "7:7 dec", "TestA TestB TestC"},
		{"inside the condition's block", "10:7 flip", "TestB TestC"},
		{"inside the if body's block only", "11:12 swap", "TestB"},
		{"the if statement, from its block's first byte", "10:2 delete", "TestB TestC"},
		{"in a block that no test executes", "16:29 swap", ""},
	} {
		if g, ok := got[c.mutant]; !ok || g != c.want {
			t.Errorf("%s (%s): selected %q, want %q", c.why, c.mutant, g, c.want)
		}
	}
	// A mutant that ends where a block starts does not take its tests.
	b := bs["p.go"][slices.IndexFunc(bs["p.go"], func(b block) bool { return len(b.tests) == 1 && b.tests[0] == 1 })]
	if tests, whole := selected(bs, mutant{file: "p.go", off: b.off - 1, end: b.off, fn: [2]int{0, len(fixture)}}); whole || !slices.Equal(tests, []int{1, 2}) {
		t.Errorf("a mutant ending at the if body's first byte selects %v (whole %v), want the condition's tests [1 2]", tests, whole)
	}
}

// event is one line of a test2json stream.
func event(action, test, output string) string {
	return fmt.Sprintf(`{"Action":%q,"Test":%q,"Output":%q}`, action, test, output)
}

var three = []string{"TestA", "TestB", "TestC"}

func TestParse(t *testing.T) {
	for _, c := range []struct {
		why      string
		exitErr  bool
		events   []string
		failed   []string
		rest     []string
		bare     bool
		timedOut bool
	}{
		{"the second test panics: the third runs again", true, []string{
			event("run", "TestA", ""),
			event("pass", "TestA/sub", ""),
			event("pass", "TestA", ""),
			event("run", "TestB", ""),
			event("output", "TestB", "panic: index out of range [recovered]\n"),
			event("fail", "TestB", ""),
		}, []string{"TestB"}, []string{"TestC"}, false, false},
		{"the second test dies of a fatal error, which reports no failure: it fails and the third runs again", true, []string{
			event("run", "TestA", ""),
			event("pass", "TestA", ""),
			event("run", "TestB", ""),
			event("output", "TestB", "fatal error: runtime: out of memory\n"),
		}, []string{"TestB"}, []string{"TestC"}, false, false},
		{"a cap hit: nothing runs again", true, []string{
			event("run", "TestA", ""),
			event("pass", "TestA", ""),
			event("run", "TestB", ""),
			event("output", "TestB", "panic: test timed out after 1m0s\n"),
		}, nil, nil, false, true},
		{"a failure outside any test: the package fails, nothing runs again", true, []string{
			event("run", "TestA", ""),
			event("pass", "TestA", ""),
			event("output", "", "audit: broken chain\n"),
		}, nil, nil, true, false},
		{"a subtest fails: its top-level test fails, the rest pass", true, []string{
			event("run", "TestA", ""),
			event("run", "TestA/sub", ""),
			event("fail", "TestA/sub", ""),
			event("fail", "TestA", ""),
			event("run", "TestB", ""),
			event("pass", "TestB", ""),
			event("run", "TestC", ""),
			event("skip", "TestC", ""),
		}, []string{"TestA"}, nil, false, false},
	} {
		failed, rest, bare, timedOut := parse([]byte(strings.Join(c.events, "\n")), c.exitErr, three)
		if !slices.Equal(failed, c.failed) || !slices.Equal(rest, c.rest) || bare != c.bare || timedOut != c.timedOut {
			t.Errorf("%s: failed %v, rest %v, bare %v, timed out %v; want %v, %v, %v, %v",
				c.why, failed, rest, bare, timedOut, c.failed, c.rest, c.bare, c.timedOut)
		}
	}
}
