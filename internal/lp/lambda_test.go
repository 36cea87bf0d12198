package lp

import (
	"math"
	"sort"
	"testing"
)

// sortScanPrice is the reference budget-price step: sort the
// breakpoints by density, descending, and scan equal-density groups
// until the cumulative size first exceeds the budget.
func sortScanPrice(ds []density, budget float64) float64 {
	ds = append([]density(nil), ds...)
	sort.Slice(ds, func(a, b int) bool { return ds[a].d > ds[b].d })
	cum := 0.0
	for i := 0; i < len(ds); {
		j, gs := i, 0.0
		for j < len(ds) && ds[j].d == ds[i].d {
			gs += ds[j].s
			j++
		}
		if cum+gs > budget {
			return ds[i].d
		}
		cum += gs
		i = j
	}
	return 0
}

// TestBudgetPriceMatchesSortScan checks the selection against the
// sort-and-scan oracle bit for bit: random densities drawn from a few
// values (heavy ties) and from a continuum, all-equal densities,
// budgets on exact prefix sums of the sorted sizes and one page either
// side of them, budgets at and above the total, and a single item.
func TestBudgetPriceMatchesSortScan(t *testing.T) {
	check := func(label string, ds []density, budget float64) {
		t.Helper()
		want := sortScanPrice(ds, budget)
		got := budgetPrice(append([]density(nil), ds...), budget)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (n=%d, budget %v): selection λ=%v, sort-and-scan λ=%v", label, len(ds), budget, got, want)
		}
	}
	// prefixBudgets lists every prefix sum of the sizes in descending
	// density order, each also one page below and above.
	prefixBudgets := func(ds []density) []float64 {
		sorted := append([]density(nil), ds...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].d > sorted[b].d })
		var out []float64
		cum := 0.0
		for _, x := range sorted {
			cum += x.s
			out = append(out, cum-1, cum, cum+1)
		}
		return out
	}
	rng := lcg(1)
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.intn(60)
		levels := 1 + rng.intn(5)
		continuous := iter%2 == 1
		ds := make([]density, n)
		total := 0.0
		for i := range ds {
			d := float64(1+rng.intn(levels)) / 3
			if continuous {
				d = rng.float() * 10
			}
			ds[i] = density{d: d, s: float64(1 + rng.intn(8))}
			total += ds[i].s
		}
		for _, b := range prefixBudgets(ds) {
			check("random", ds, b)
		}
		check("random/total", ds, total)
		check("random/over-total", ds, total+5)
		check("random/fraction", ds, math.Floor(total*rng.float()))
	}

	equal := make([]density, 40)
	total := 0.0
	for i := range equal {
		equal[i] = density{d: 2.5, s: float64(1 + i%3)}
		total += equal[i].s
	}
	for _, b := range []float64{0, 1, total / 2, total - 1, total, total + 1} {
		check("all-equal", equal, b)
	}

	one := []density{{d: 0.75, s: 4}}
	for _, b := range []float64{1, 3, 4, 5} {
		check("single", one, b)
	}
	check("empty", nil, 10)
}
