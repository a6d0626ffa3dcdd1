package redstar

import "testing"

// TestStreamedPlanMatchesWholeDeck: BuildPlan, which expands, deduplicates
// and plans one sink time at a time and numbers the intermediates at the
// end, builds the plan and workload that graph.BuildPlan(graph.Dedup(all),
// nextID) and FromStages build over the whole deck expanded at once — pair
// for pair and ID for ID — on bases whose constructions repeat operator
// names (where the per-slice Dedup removes graphs), on the full-size
// bundled correlators and on the ladder's decks.
func TestStreamedPlanMatchesWholeDeck(t *testing.T) {
	for _, tc := range repeatedNameBases() {
		checkAgainstAlwaysDedup(t, tc.name, tc.c)
	}
	for _, c := range Bundled() {
		checkAgainstAlwaysDedup(t, c.Name, c)
	}
	for _, path := range []string{"../../bench/decks/a1_rhopi_t4_b2.json", "../../bench/decks/f0d4_t64_m3.json"} {
		checkAgainstAlwaysDedup(t, path, deckFromFile(t, path))
	}
}
