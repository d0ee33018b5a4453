package main

import (
	"encoding/json"
	"fmt"
	"math"

	"costdist"
	"costdist/internal/geom"
	"costdist/internal/sta"
)

// serve-solve's documents are real nets: the wave-0 subproblems the
// router builds for the nets of c1@0.02 chips. A document carries the
// chip's die and layer count, the net's driver and sink pins, the sink
// delay weights the router derives before its first wave, the chip's
// bifurcation penalty, and the router's window margin and per-net seed.
// Wave-0 prices are all 1, so no congestion rectangle is needed. The
// sink counts therefore follow chipgen's fanout distribution, which
// holds the paper's |S| buckets in its proportions.
//
// Chip k of the corpus is c1@0.02 with generator seed c1's + k; chip 0
// is the chip the route workloads route. corpusChips chips give about
// 27,000 distinct documents, more than a 20-second window can serve.
// The chip after them feeds the untimed warm-up. corpusMix seeds the
// fixed order that mixes the chips; objectiveDocs is the block the
// seed shuffles within, and the first block is the objective's.
const (
	corpusChips   = 24
	corpusMix     = 0x5EED
	objectiveDocs = 1024
)

// docJSON is the part of the InstanceJSON wire schema the corpus uses.
type docJSON struct {
	NX     int32      `json:"nx"`
	NY     int32      `json:"ny"`
	Layers int        `json:"layers"`
	Root   [3]int32   `json:"root"`
	Sinks  []sinkJSON `json:"sinks"`
	DBif   float64    `json:"dbif"`
	Eta    float64    `json:"eta"`
	Seed   uint64     `json:"seed"`
	Margin int32      `json:"margin"`
}

type sinkJSON struct {
	X int32   `json:"x"`
	Y int32   `json:"y"`
	L int32   `json:"l"`
	W float64 `json:"w"`
}

// buildCorpus returns the window's documents, chips 0 to corpusChips-1,
// and the warm-up's, chip corpusChips. Chips differ by up to 2x in mean
// solve time, so the window's documents are mixed in one fixed order in
// which every stretch of the stream draws evenly from all chips. The
// seed then shuffles each consecutive block of objectiveDocs documents,
// so the first block, whose trees the objective sums, holds the same
// documents for every seed.
func buildCorpus(seed uint64) (docs, warm [][]byte, err error) {
	opt := costdist.DefaultRouterOptions()
	for k := 0; k <= corpusChips; k++ {
		chip, err := generateChip(k)
		if err != nil {
			return nil, nil, err
		}
		nd, err := netDocs(chip, opt)
		if err != nil {
			return nil, nil, err
		}
		if k == corpusChips {
			warm = nd
		} else {
			docs = append(docs, nd...)
		}
	}
	shuffle(docs, &rng{s: corpusMix})
	g := rng{s: seed}
	for lo := 0; lo < len(docs); lo += objectiveDocs {
		shuffle(docs[lo:min(lo+objectiveDocs, len(docs))], &g)
	}
	shuffle(warm, &g)
	return docs, warm, nil
}

func shuffle(docs [][]byte, g *rng) {
	for i := len(docs) - 1; i > 0; i-- {
		j := g.intn(i + 1)
		docs[i], docs[j] = docs[j], docs[i]
	}
}

// netDocs encodes every net of chip as the instance the router's wave 0
// solves for it under opt. The weights repeat the router's pre-wave
// timing (internal/router/waves.go): L1 delay estimates on a mid-stack
// layer, one static timing analysis, then WeightBase·exp(−slack/WeightTau)
// clamped to [WeightBase, WeightMax].
func netDocs(chip *costdist.Chip, opt costdist.RouterOptions) ([][]byte, error) {
	g, nl := chip.G, chip.NL
	mid := g.Layers[len(g.Layers)/2]
	perGC := mid.Wires[0].DelayPerGCell
	est := func(n, k int) float64 {
		net := nl.Nets[n]
		d := geom.L1(nl.Cells[net.Driver].Pos, nl.Cells[net.Sinks[k]].Pos)
		return float64(d)*perGC + 2*mid.ViaDelay
	}
	timing := sta.Analyze(nl, est, chip.ClkPeriod)
	dbif := opt.DBif
	if dbif < 0 {
		dbif = chip.DBif
	}
	docs := make([][]byte, len(nl.Nets))
	for ni, n := range nl.Nets {
		drv := nl.Cells[n.Driver].Pos
		d := docJSON{
			NX: g.NX, NY: g.NY, Layers: len(g.Layers),
			Root: [3]int32{drv.X, drv.Y, 0},
			DBif: dbif, Eta: opt.Eta, Margin: opt.Margin,
			Seed: opt.Seed*0x9E3779B9 + uint64(ni),
		}
		for k, s := range n.Sinks {
			w := opt.WeightBase * math.Exp(-timing.PinSlack(ni, k)/opt.WeightTau)
			w = min(max(w, opt.WeightBase), opt.WeightMax)
			p := nl.Cells[s].Pos
			d.Sinks = append(d.Sinks, sinkJSON{X: p.X, Y: p.Y, W: w})
		}
		out, err := json.Marshal(&d)
		if err != nil {
			return nil, fmt.Errorf("encoding net %d: %w", ni, err)
		}
		docs[ni] = out
	}
	return docs, nil
}
