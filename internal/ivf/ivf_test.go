package ivf

import (
	"testing"

	"repro/internal/vecmath"
	"repro/internal/xrand"
)

func testData(seed uint64, rows, dim int) *vecmath.Matrix {
	r := xrand.New(seed)
	m := vecmath.NewMatrix(rows, dim)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}

func TestTrainAndAssign(t *testing.T) {
	data := testData(1, 1000, 8)
	c := Train(data, 16, 1)
	if c.NList() != 16 || c.Dim() != 8 {
		t.Fatalf("NList=%d Dim=%d", c.NList(), c.Dim())
	}
	for i := 0; i < 100; i++ {
		a := c.Assign(data.Row(i))
		if a < 0 || a >= 16 {
			t.Fatalf("assignment %d out of range", a)
		}
		// Assignment must be the true argmin.
		want, _ := c.Centroids.ArgminL2(data.Row(i))
		if a != int32(want) {
			t.Fatalf("Assign=%d argmin=%d", a, want)
		}
	}
}

func TestProbeOrdering(t *testing.T) {
	data := testData(2, 500, 4)
	c := Train(data, 8, 2)
	q := data.Row(0)
	probes, _ := c.ProbeInto(nil, nil, q, 8)
	if len(probes) != 8 {
		t.Fatalf("probe count %d", len(probes))
	}
	prev := float32(-1)
	for _, p := range probes {
		d := vecmath.L2Squared(q, c.Centroids.Row(int(p)))
		if d < prev {
			t.Fatal("probes not in ascending distance order")
		}
		prev = d
	}
	// First probe must be the assignment.
	if probes[0] != c.Assign(q) {
		t.Fatal("probe[0] != Assign")
	}
}

func TestProbeClamped(t *testing.T) {
	data := testData(3, 100, 4)
	c := Train(data, 4, 3)
	if got, _ := c.ProbeInto(nil, nil, data.Row(0), 100); len(got) != 4 {
		t.Fatalf("probe returned %d, want 4", len(got))
	}
}

func TestResidual(t *testing.T) {
	data := testData(4, 200, 4)
	c := Train(data, 4, 4)
	v := data.Row(7)
	cl := c.Assign(v)
	res := c.Residual(nil, v, cl)
	centroid := c.Centroids.Row(int(cl))
	for i := range v {
		back := res[i] + centroid[i]
		if diff := back - v[i]; diff > 1e-5 || diff < -1e-5 {
			t.Fatalf("residual round trip failed at %d: %v vs %v", i, back, v[i])
		}
	}
}
