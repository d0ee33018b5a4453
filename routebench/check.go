package main

import (
	"fmt"
	"math"

	"costdist"
)

// checkTree verifies that tr is an embedded tree of g connecting root to
// every sink: each step joins two adjacent vertices through the segment
// that lies between them, the undirected steps form one component with
// no cycle, and the root and all sinks are on it.
func checkTree(g *costdist.Graph, root costdist.Vertex, sinks []costdist.Vertex, tr *costdist.Tree) error {
	if tr == nil {
		return fmt.Errorf("unrouted")
	}
	if len(tr.Steps) == 0 {
		for _, s := range sinks {
			if s != root {
				return fmt.Errorf("empty tree but sink %d is not the root", s)
			}
		}
		return nil
	}
	idx := map[costdist.Vertex]int32{}
	parent := []int32{}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	vertex := func(v costdist.Vertex) int32 {
		i, ok := idx[v]
		if !ok {
			i = int32(len(parent))
			idx[v] = i
			parent = append(parent, i)
		}
		return i
	}
	type edge struct{ a, b costdist.Vertex }
	seen := map[edge]bool{}
	for _, st := range tr.Steps {
		u, v := st.From, st.Arc.To
		ux, uy, ul := g.XYL(u)
		vx, vy, vl := g.XYL(v)
		if abs32(ux-vx)+abs32(uy-vy)+abs32(ul-vl) != 1 {
			return fmt.Errorf("step %d→%d joins non-adjacent vertices", u, v)
		}
		if seg, via := g.SegBetween(u, v); seg != st.Arc.Seg || via != st.Arc.Via {
			return fmt.Errorf("step %d→%d names segment %d, not %d", u, v, st.Arc.Seg, seg)
		}
		if u > v {
			u, v = v, u
		}
		if seen[edge{u, v}] {
			continue
		}
		seen[edge{u, v}] = true
		a, b := find(vertex(u)), find(vertex(v))
		if a == b {
			return fmt.Errorf("steps form a cycle at %d→%d", u, v)
		}
		parent[a] = b
	}
	for _, s := range append([]costdist.Vertex{root}, sinks...) {
		i, ok := idx[s]
		if !ok {
			return fmt.Errorf("terminal %d is not on the tree", s)
		}
		if find(i) != find(idx[root]) {
			return fmt.Errorf("terminal %d is not connected to the root", s)
		}
	}
	root0 := find(idx[root])
	for _, i := range idx {
		if find(i) != root0 {
			return fmt.Errorf("tree has more than one component")
		}
	}
	return nil
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// checkRoute verifies the tree of every net of chip, counting one
// attempted operation per net and one failure per invalid net.
func checkRoute(r *result, chip *costdist.Chip, res *costdist.RouteResult) {
	for ni, n := range chip.NL.Nets {
		r.attempted++
		if ni >= len(res.Trees) {
			r.fail("net %d: unrouted", ni)
			continue
		}
		sinks := make([]costdist.Vertex, len(n.Sinks))
		for k, s := range n.Sinks {
			sinks[k] = chip.PinVertex(s)
		}
		if err := checkTree(chip.G, chip.PinVertex(n.Driver), sinks, res.Trees[ni]); err != nil {
			r.fail("net %d: %v", ni, err)
		}
	}
}

// fingerprint is the deterministic part of a routing run: quality and
// every work count. All runs of one seed must produce the same one.
type fingerprint struct {
	objective, overflow, tns, ws     uint64
	solved, skipped, repaired, escal int64
	checkpointBytes                  int
}

func fingerprintOf(m costdist.RouteMetrics, checkpointBytes int) fingerprint {
	return fingerprint{
		objective: math.Float64bits(m.Objective), overflow: math.Float64bits(m.Overflow),
		tns: math.Float64bits(m.TNS), ws: math.Float64bits(m.WS),
		solved: m.NetsSolved, skipped: m.NetsSkipped, repaired: m.NetsRepaired, escal: m.RepairEscalated,
		checkpointBytes: checkpointBytes,
	}
}

// determinism holds the first fingerprint of each kind of run and
// fails the result when a later run of the same kind differs.
type determinism struct {
	first map[string]fingerprint
}

func (d *determinism) observe(r *result, kind string, fp fingerprint) {
	if d.first == nil {
		d.first = map[string]fingerprint{}
	}
	prev, ok := d.first[kind]
	if !ok {
		d.first[kind] = fp
		return
	}
	if prev != fp {
		r.fail("determinism: %s run differs from the first of this seed: %+v vs %+v", kind, fp, prev)
	}
}
