package costdist

// Native Go fuzz targets for the serialization boundary. The seed
// corpus comes from examples/instances/ — the same documents
// cmd/cdsteiner consumes. Run with
//
//	go test -fuzz FuzzParseInstance -fuzztime 30s .
//	go test -fuzz FuzzMarshalTreeRoundTrip -fuzztime 30s .
//	go test -fuzz FuzzUnmarshalCheckpoint -fuzztime 30s .

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func addInstanceCorpus(f *testing.F) {
	f.Helper()
	files, err := filepath.Glob(filepath.Join("examples", "instances", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("seed corpus missing: %v (%d files)", err, len(files))
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// FuzzParseInstance asserts ParseInstance never panics and that every
// accepted document yields a structurally sound instance.
func FuzzParseInstance(f *testing.F) {
	addInstanceCorpus(f)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"nx":2,"ny":2,"layers":2,"root":[1,1,1]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ParseInstance(data)
		if err != nil {
			return
		}
		g := in.G
		if g == nil || in.C == nil {
			t.Fatal("accepted instance without graph or costs")
		}
		if in.Root < 0 || in.Root >= Vertex(g.NumV()) {
			t.Fatalf("root %d outside graph", in.Root)
		}
		for i, s := range in.Sinks {
			if s.V < 0 || s.V >= Vertex(g.NumV()) {
				t.Fatalf("sink %d vertex %d outside graph", i, s.V)
			}
		}
		for _, p := range in.TermPts() {
			if !in.Win.Contains(p) {
				t.Fatalf("window %+v misses terminal %+v", in.Win, p)
			}
		}
		for _, m := range in.C.Mult {
			if m < 1 || math.IsNaN(float64(m)) || math.IsInf(float64(m), 0) {
				t.Fatalf("congestion multiplier %v out of range", m)
			}
		}
		if in.Eta < 0 || in.Eta > 0.5 {
			t.Fatalf("eta %v outside [0, 1/2]", in.Eta)
		}
	})
}

// FuzzMarshalTreeRoundTrip parses a fuzzed instance, solves it with the
// cheap L1 oracle and requires MarshalTree → UnmarshalTree to reproduce
// the tree exactly: identical re-marshaled bytes and an identical
// objective decomposition. This caught the wire type being dropped from
// TreeJSON (all reloaded edges fell on type 0, skewing the cost of any
// tree using a wider wire), fixed by the wire_types field.
func FuzzMarshalTreeRoundTrip(f *testing.F) {
	addInstanceCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ParseInstance(data)
		if err != nil {
			return
		}
		// Bound the solve so fuzzing stays fast.
		if in.G.NumV() > 4096 || len(in.Sinks) > 8 {
			return
		}
		tr, err := Solve(in, L1, DefaultRouterOptions())
		if err != nil {
			return // unroutable fuzz geometry is not a serialization bug
		}
		blob, err := MarshalTree(in, tr)
		if err != nil {
			t.Fatalf("marshal of a solved tree failed: %v", err)
		}
		back, err := UnmarshalTree(in, blob)
		if err != nil {
			t.Fatalf("unmarshal of own output failed: %v\n%s", err, blob)
		}
		blob2, err := MarshalTree(in, back)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("round-trip not stable:\nfirst  %s\nsecond %s", blob, blob2)
		}
		ev1, err := Evaluate(in, tr)
		if err != nil {
			t.Fatal(err)
		}
		ev2, err := Evaluate(in, back)
		if err != nil {
			t.Fatalf("reloaded tree invalid: %v", err)
		}
		if ev1.Total != ev2.Total || ev1.CongCost != ev2.CongCost || ev1.DelayCost != ev2.DelayCost {
			t.Fatalf("objective changed across round-trip: %+v vs %+v", ev1, ev2)
		}
	})
}

// FuzzExactGoalVsDP cross-checks the two exact solvers on fuzzed
// instances: the goal-oriented label-setting search and the
// Dreyfus–Wagner DP must certify the same lower bound, and both trees
// must pass the structural differential checks. Any divergence means
// one of the two lost optimality — the strongest oracle-correctness
// signal the suite has, since the solvers share no search code.
//
//	go test -fuzz FuzzExactGoalVsDP -fuzztime 30s .
func FuzzExactGoalVsDP(f *testing.F) {
	addInstanceCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ParseInstance(data)
		if err != nil {
			return
		}
		// Bound both solvers: the DP is the scaling wall here.
		if in.G.NumV() > 2048 || len(in.Sinks) > 6 {
			return
		}
		dp, err := SolveExact(in)
		if err != nil {
			return // over the DP's documented size limits
		}
		goal, err := SolveExactGoal(context.Background(), in)
		if err != nil {
			t.Fatalf("goal solver failed where DP succeeded: %v", err)
		}
		if math.Abs(goal.LowerBound-dp.LowerBound) > 1e-7*(1+math.Abs(dp.LowerBound)) {
			t.Fatalf("certified lower bounds diverge: goal %v, DP %v", goal.LowerBound, dp.LowerBound)
		}
		if goal.Total > dp.Total+1e-7*(1+math.Abs(dp.Total)) {
			t.Fatalf("goal tree %v worse than DP tree %v", goal.Total, dp.Total)
		}
		for name, res := range map[string]*ExactResult{"dp": dp, "goal": goal} {
			ev, err := Evaluate(in, res.Tree)
			if err != nil {
				t.Fatalf("%s tree invalid: %v", name, err)
			}
			checkTreeProperties(t, in, res.Tree, ev)
		}
	})
}

// Regression for a hole the fuzz harness' generator could not reach on
// its own: a hand-written document with a wire edge running against its
// layer's preferred direction. Such an edge does not exist in the graph
// and used to be silently mapped onto an unrelated segment id.
func TestUnmarshalTreeRejectsWrongDirection(t *testing.T) {
	in, err := ParseInstance([]byte(`{
		"nx": 8, "ny": 8, "layers": 2,
		"root": [0, 0, 0],
		"sinks": [{"x": 3, "y": 0, "l": 0, "w": 0.01}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	// Layer 0 is horizontal in the default technology: a vertical wire
	// step on it must be rejected.
	_, err = UnmarshalTree(in, []byte(`{"edges": [[[0,0,0],[0,1,0]]], "wire_types": [0]}`))
	if err == nil {
		t.Fatal("vertical edge on a horizontal layer was accepted")
	}
	// The same geometry as a legal via edge still parses.
	if _, err := UnmarshalTree(in, []byte(`{"edges": [[[0,0,0],[0,0,1]]], "wire_types": [-1]}`)); err != nil {
		t.Fatalf("legal via edge rejected: %v", err)
	}
}

// hugeGridCheckpoint claims a grid of 12e9 vertices and carries no
// vectors at all: the decoder must refuse it before sizing any array
// from nx and ny.
const hugeGridCheckpoint = `{"version":1,"nx":2000000000,"ny":3,"layers":2,"layer_dirs":"HV"}`

func TestUnmarshalCheckpointRejectsHugeGrid(t *testing.T) {
	if _, err := UnmarshalCheckpoint([]byte(hugeGridCheckpoint)); err == nil {
		t.Fatal("checkpoint of an oversized grid accepted")
	}
	// A grid that fits int32 but not the document: the capacity vector
	// is empty, so the grid must be refused before it is allocated.
	doc := `{"version":1,"nx":2000,"ny":2000,"layers":2,"layer_dirs":"HV"}`
	if _, err := UnmarshalCheckpoint([]byte(doc)); err == nil {
		t.Fatal("checkpoint without capacity vector accepted")
	}
}

// FuzzUnmarshalCheckpoint asserts the checkpoint decoder never panics
// and that every accepted document re-marshals to bytes that decode to
// the same state.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	chip, err := GenerateChip(ChipSuite(0.002)[0])
	if err != nil {
		f.Fatal(err)
	}
	opt := DefaultRouterOptions()
	opt.Waves = 2
	_, st, err := RouteChipCheckpoint(chip, CD, opt)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := MarshalCheckpoint(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(hugeGridCheckpoint))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		out, err := MarshalCheckpoint(st)
		if err != nil {
			t.Fatalf("re-marshal of an accepted checkpoint failed: %v", err)
		}
		back, err := UnmarshalCheckpoint(out)
		if err != nil {
			t.Fatalf("decode of own output failed: %v", err)
		}
		if !reflect.DeepEqual(st, back) {
			t.Fatal("checkpoint changed across the round trip")
		}
	})
}
