package whatif

import "testing"

func TestBenefitMatrix(t *testing.T) {
	m := &BenefitMatrix{
		NumQueries: 4,
		Rows: [][]BenefitEntry{
			{{Query: 0, Benefit: 2}, {Query: 3, Benefit: 5}},
			{},
			{{Query: 1, Benefit: 1}},
		},
		Private: []float64{0.5, 0, 0},
	}
	if got := m.StandaloneBenefit(0); got != 7.5 {
		t.Errorf("StandaloneBenefit(0) = %f, want 7.5", got)
	}
	if got := m.StandaloneBenefit(2); got != 1 {
		t.Errorf("StandaloneBenefit(2) = %f, want 1", got)
	}
	if got := m.NonZero(); got != 3 {
		t.Errorf("NonZero = %d, want 3", got)
	}
}
