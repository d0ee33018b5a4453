package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"costdist/internal/exact"
	"costdist/internal/geom"
	"costdist/internal/grid"
	"costdist/internal/nets"
)

// boundSolver returns a solver holding only the state h reads: the
// cost floors of c and a searching component of delay weight w (id 0)
// followed by one alive component per target box.
func boundSolver(c *grid.Costs, w float64, targets []geom.Rect) (*solver, *comp) {
	s := &solver{minCost: c.MinCostPerGCell(), minDelay: c.MinDelayPerGCell()}
	src := &comp{alive: true, astar: true, weight: w}
	s.comps = []*comp{src}
	for i, r := range targets {
		s.comps = append(s.comps, &comp{id: int32(i + 1), alive: true, bbox: r})
	}
	return s, src
}

func TestRectDist(t *testing.T) {
	r := geom.Rect{X0: 2, Y0: 2, X1: 4, Y1: 4}
	cases := []struct {
		p geom.Pt
		d int64
	}{
		{geom.Pt{X: 3, Y: 3}, 0},
		{geom.Pt{X: 2, Y: 2}, 0},
		{geom.Pt{X: 0, Y: 3}, 2},
		{geom.Pt{X: 6, Y: 6}, 4},
		{geom.Pt{X: 3, Y: 0}, 2},
	}
	for _, c := range cases {
		if got := rectDist(c.p, r); got != c.d {
			t.Fatalf("rectDist(%v) = %d want %d", c.p, got, c.d)
		}
	}
}

// TestAStarBoundAdmissible checks the §III-C future cost h — the L1
// distance to the nearest target box times the cheapest gcell step
// under l_u = c + w(u)·d (eq. 4) — against the true remaining cost: the
// single-sink DP optimum from the search position (weight w) to every
// vertex of every target box, on any layer. A search may finish at any
// vertex of a target component, and those vertices all lie in its box,
// so the minimum over the box lower-bounds the real remaining cost.
func TestAStarBoundAdmissible(t *testing.T) {
	const nx = 6
	rng := rand.New(rand.NewPCG(5, 23))
	for it := 0; it < 12; it++ {
		g, c := newGraph(nx, nx, 3)
		for i := range c.Mult {
			if rng.IntN(3) == 0 {
				c.Mult[i] = 1 + 4*rng.Float32()
			}
		}
		var targets []geom.Rect
		for k := 1 + rng.IntN(3); k > 0; k-- {
			x, y := rng.Int32N(nx-1), rng.Int32N(nx-1)
			targets = append(targets, geom.Rect{X0: x, Y0: y, X1: x + rng.Int32N(2), Y1: y + rng.Int32N(2)})
		}
		w := rng.Float64() * 2
		s, src := boundSolver(c, w, targets)

		for trial := 0; trial < 4; trial++ {
			v := g.At(rng.Int32N(nx), rng.Int32N(nx), rng.Int32N(3))
			want := math.Inf(1)
			for _, r := range targets {
				for y := r.Y0; y <= r.Y1; y++ {
					for x := r.X0; x <= r.X1; x++ {
						for l := int32(0); l < 3; l++ {
							if u := g.At(x, y, l); u == v {
								want = 0
							} else {
								want = math.Min(want, remainingCost(t, g, c, v, w, u))
							}
						}
					}
				}
			}
			if got := s.h(src, g.Pt(v)); got > want+1e-9*(1+want) {
				t.Fatalf("it %d: h(%v) = %v exceeds true remaining cost %v", it, g.Pt(v), got, want)
			}
		}
	}
}

// remainingCost is the optimum of connecting v, carrying delay weight w,
// to u under l_u: the DP of internal/exact on the single-sink instance
// rooted at u, whose LowerBound is exact.
func remainingCost(t *testing.T, g *grid.Graph, c *grid.Costs, v grid.V, w float64, u grid.V) float64 {
	t.Helper()
	res, err := exact.Solve(&nets.Instance{
		G: g, C: c, Root: u, Win: g.FullWindow(),
		Sinks: []nets.Sink{{V: v, W: w}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.LowerBound
}

func TestAStarBoundNoTargetsIsZero(t *testing.T) {
	_, c := newGraph(4, 4, 2)
	s, src := boundSolver(c, 5, []geom.Rect{{X0: 3, Y0: 3, X1: 3, Y1: 3}})
	s.comps[1].alive = false
	if got := s.h(src, geom.Pt{X: 1, Y: 1}); got != 0 {
		t.Fatalf("no alive targets: h = %v, want 0", got)
	}
	s.comps[1].alive = true
	src.astar = false
	if got := s.h(src, geom.Pt{X: 1, Y: 1}); got != 0 {
		t.Fatalf("A* off: h = %v, want 0", got)
	}
}

func TestAStarBoundPicksNearestTarget(t *testing.T) {
	_, c := newGraph(30, 30, 2)
	s, src := boundSolver(c, 1, []geom.Rect{
		{X0: 20, Y0: 20, X1: 22, Y1: 22},
		{X0: 3, Y0: 3, X1: 3, Y1: 3},
	})
	unit := s.minCost + src.weight*s.minDelay
	if got, want := s.h(src, geom.Pt{X: 4, Y: 3}), unit; got != want {
		t.Fatalf("h next to the near target = %v, want %v", got, want)
	}
	if got, want := s.h(src, geom.Pt{X: 10, Y: 10}), 14*unit; got != want {
		t.Fatalf("h between targets = %v, want %v", got, want)
	}
}
