package operator

import (
	"sort"
	"testing"

	"streamop/internal/xrand"
)

// insertTop must list what /debug/state listed when publishDebug
// stable-sorted every open group and kept the first debugTopK: the same
// groups, the same order, and on equal ranks — the common case, a window
// full of count(*) = 1 — the groups seen first.
func TestInsertTopMatchesStableSort(t *testing.T) {
	r := xrand.New(5)
	for _, tc := range []struct{ groups, ranks int }{
		{0, 1}, {1, 1}, {debugTopK - 1, 2}, {debugTopK, 1}, {debugTopK + 1, 1},
		{500, 1}, {500, 3}, {500, 12}, {5000, 40}, {5000, 1 << 30},
	} {
		all := make([]rankedGroup, tc.groups)
		for i := range all {
			all[i] = rankedGroup{g: new(group), rank: float64(r.Intn(tc.ranks))}
		}
		top := make([]rankedGroup, 0, debugTopK)
		for _, rg := range all {
			top = insertTop(top, rg)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].rank > all[j].rank })
		want := all[:min(len(all), debugTopK)]
		if len(top) != len(want) {
			t.Fatalf("%d groups over %d ranks: kept %d, the sort keeps %d", tc.groups, tc.ranks, len(top), len(want))
		}
		for i := range want {
			if top[i] != want[i] {
				t.Errorf("%d groups over %d ranks: place %d holds rank %v group %p, the sort puts rank %v group %p there",
					tc.groups, tc.ranks, i, top[i].rank, top[i].g, want[i].rank, want[i].g)
			}
		}
	}
}
