package bench

import (
	"strings"
	"testing"
)

// tinyOptions keeps harness tests fast.
func tinyOptions() Options {
	o := QuickOptions()
	o.N = 8000
	o.Queries = 40
	o.DPUs = 8
	o.IVFGrid = []int{8, 16}
	o.NProbeGrid = []int{2, 4}
	return o
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("registry holds %d experiments, want 18", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Find("fig10"); !ok {
		t.Fatal("Find(fig10) failed")
	}
	if _, ok := Find("nonsense"); ok {
		t.Fatal("Find(nonsense) succeeded")
	}
	if len(IDs()) != 18 {
		t.Fatal("IDs() count mismatch")
	}
}

func TestCheapExperiments(t *testing.T) {
	ctx := NewContext(tinyOptions())
	for _, id := range []string{"table1", "fig1", "fig4", "fig7"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		rep, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		if s := rep.String(); !strings.Contains(s, rep.ID) {
			t.Fatalf("%s: report render missing id", id)
		}
	}
}

func TestFig7CurveShape(t *testing.T) {
	ctx := NewContext(tinyOptions())
	rep, err := ctx.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	if len(rows) < 8 {
		t.Fatalf("only %d rows", len(rows))
	}
}

func TestRecallCheckExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive in -short mode")
	}
	o := tinyOptions()
	ctx := NewContext(o)
	rep, err := ctx.RecallCheck()
	if err != nil {
		t.Fatal(err)
	}
	// Every dataset row must report an exact match with the quantized
	// reference.
	for _, row := range rep.Tables[0].Rows {
		if row[4] != "true" {
			t.Errorf("dataset %s: UpANNS != quantized reference", row[0])
		}
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive in -short mode")
	}
	o := tinyOptions()
	ctx := NewContext(o)
	rep, err := ctx.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("fig13 produced %d tables", len(rep.Tables))
	}
}

func TestFig20Regression(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive in -short mode")
	}
	o := tinyOptions()
	ctx := NewContext(o)
	rep, err := ctx.Fig20()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "r2") {
			found = true
		}
	}
	if !found {
		t.Error("fig20 notes missing regression fit")
	}
}
