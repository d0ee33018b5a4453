package main

import (
	"bytes"
	"fmt"
	"time"

	"costdist"
)

// The routed chip: the suite's c1 at scale 0.02, fixed for every seed.
// The seed reaches RouterOptions.Seed and, on route-eco, the ECO
// perturbation; it does not regenerate the chip, because chips of other
// generator seeds differ by up to 2.6x in objective and 16x in overflow,
// which would drown every comparison.
const (
	chipName  = "c1"
	chipScale = 0.02
	waves     = 4

	ecoPerturb   = 0.05
	ecoRepairTol = 0.25

	// Set-up is repeated so setup_s is a median: chip generation is
	// milliseconds, the route-eco base route seconds.
	coldSetups = 101
	ecoSetups  = 3
	// Routes measured per run at least, whatever the window.
	minRoutes = 3
	// Checkpoint encodes and decodes timed by the traced route-eco run.
	codecReps = 5
)

// routeOptions is the DefaultRouterOptions engine with only method,
// waves, seed and threads set: every net is re-solved every wave.
func routeOptions(cfg config) costdist.RouterOptions {
	opt := costdist.DefaultRouterOptions()
	opt.Waves = waves
	opt.Seed = cfg.seed
	opt.Threads = cfg.procs
	return opt
}

// generateChip generates c1@0.02 with the suite's generator seed plus
// k; chip 0 is the routed chip.
func generateChip(k int) (*costdist.Chip, error) {
	spec, ok := costdist.ChipSpecByName(chipName, chipScale)
	if !ok {
		return nil, fmt.Errorf("no chip %s in the suite", chipName)
	}
	spec.Seed += uint64(k)
	return costdist.GenerateChip(spec)
}

// routeRun collects one route workload's measurements. op performs one
// measured operation and returns its wall time; it checks every net
// and the run's fingerprint itself, outside the timed region.
type routeRun struct {
	cfg config
	r   *result
	det determinism
	op  func(opt costdist.RouterOptions) (float64, *costdist.RouteResult, error)

	times  []float64 // untraced operations, seconds
	nets   int64     // nets solved or repaired by the untraced operations
	traced []float64 // traced operations, seconds
	stages []costdist.StageNanos
	mem    memWindow
}

// measure runs the untimed warm-up, then operations until the window
// has passed and at least minRoutes were made. A traced run alternates
// untraced and traced operations, so both see the same machine state.
func (rr *routeRun) measure(opt costdist.RouterOptions) (warm *costdist.RouteResult, err error) {
	wopt := opt
	if rr.cfg.trace {
		wopt.CaptureWave = 0 // wave-0 instances for the core replay
	}
	if _, warm, err = rr.op(wopt); err != nil {
		return nil, err
	}
	start := time.Now()
	for len(rr.times) < minRoutes || time.Since(start).Seconds() < rr.cfg.seconds {
		rr.mem.begin()
		dt, res, err := rr.op(opt)
		rr.mem.end()
		if err != nil {
			return nil, err
		}
		rr.times = append(rr.times, dt)
		rr.nets += res.Metrics.NetsSolved + res.Metrics.NetsRepaired
		if !rr.cfg.trace {
			continue
		}
		topt := opt
		topt.Recorder = costdist.NewRecorder()
		dt, res, err = rr.op(topt)
		if err != nil {
			return nil, err
		}
		rr.traced = append(rr.traced, dt)
		var st costdist.StageNanos
		for _, w := range res.Metrics.StageNanosPerWave {
			st.Dirty += w.Dirty
			st.Price += w.Price
			st.Repair += w.Repair
			st.Solve += w.Solve
			st.Replay += w.Replay
		}
		rr.stages = append(rr.stages, st)
	}
	return warm, nil
}

// report sets the end-to-end metrics, and on a traced run the router,
// reembed, runtime and trace metrics. Route workloads take the service
// metric names in their nearest meaning: a route call is the operation
// whose latency solve_p50_ms/solve_p99_ms describe, and solve_rps counts
// the nets those calls solved or repaired per second.
func (rr *routeRun) report(m costdist.RouteMetrics) {
	r := rr.r
	n := len(rr.times)
	r.setN("route_s", median(rr.times), n)
	r.set("objective", m.Objective)
	r.setN("solve_rps", float64(rr.nets)/sum(rr.times), n)
	r.setN("solve_p50_ms", 1e3*median(rr.times), n)
	r.setN("solve_p99_ms", 1e3*quantile(rr.times, 0.99), n)
	r.set("router.overflow", m.Overflow)
	r.set("router.tns_ps", m.TNS)
	r.set("router.nets_solved", float64(m.NetsSolved))
	r.set("router.nets_skipped", float64(m.NetsSkipped))
	r.set("router.nets_repaired", float64(m.NetsRepaired))
	r.set("router.repair_escalated", float64(m.RepairEscalated))
	attempts := m.NetsRepaired + m.RepairEscalated
	if attempts > 0 {
		r.set("router.repair_yield", float64(m.NetsRepaired)/float64(attempts))
	}
	if !rr.cfg.trace {
		return
	}
	rr.mem.setRuntime(r, n)
	nt := len(rr.stages)
	pick := func(f func(costdist.StageNanos) int64) float64 {
		xs := make([]float64, nt)
		for i, st := range rr.stages {
			xs[i] = float64(f(st)) / 1e9
		}
		return median(xs)
	}
	solveS := pick(func(s costdist.StageNanos) int64 { return s.Solve })
	repairS := pick(func(s costdist.StageNanos) int64 { return s.Repair })
	r.setN("router.solve_s", solveS, nt)
	r.setN("router.dirty_s", pick(func(s costdist.StageNanos) int64 { return s.Dirty }), nt)
	r.setN("router.price_s", pick(func(s costdist.StageNanos) int64 { return s.Price }), nt)
	r.setN("router.replay_s", pick(func(s costdist.StageNanos) int64 { return s.Replay }), nt)
	r.setN("router.repair_s", repairS, nt)
	var solveMS float64
	if m.NetsSolved > 0 {
		solveMS = 1e3 * solveS / float64(m.NetsSolved)
		r.set("router.solve_ms_mean", solveMS)
	}
	if attempts > 0 {
		attemptMS := 1e3 * repairS / float64(attempts)
		r.set("reembed.attempt_ms_mean", attemptMS)
		if solveMS > 0 {
			r.set("reembed.attempt_to_solve", attemptMS/solveMS)
		}
	}
	r.setN("trace.overhead_frac", median(rr.traced)/median(rr.times)-1, nt)
}

// runRouteCold measures a cold route of the fixed chip.
func runRouteCold(cfg config) (*result, error) {
	r := newResult()
	var chip *costdist.Chip
	var setups []float64
	for i := 0; i < coldSetups; i++ {
		t0 := time.Now()
		c, err := generateChip(0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		chip = c
	}
	r.setN("setup_s", median(setups), len(setups))

	rr := &routeRun{cfg: cfg, r: r}
	rr.op = func(opt costdist.RouterOptions) (float64, *costdist.RouteResult, error) {
		t0 := time.Now()
		res, err := costdist.RouteChip(chip, costdist.CD, opt)
		dt := time.Since(t0).Seconds()
		if err != nil {
			return 0, nil, fmt.Errorf("route: %w", err)
		}
		checkRoute(r, chip, res)
		rr.det.observe(r, "route", fingerprintOf(res.Metrics, 0))
		return dt, res, nil
	}
	warm, err := rr.measure(routeOptions(cfg))
	if err != nil {
		return nil, err
	}
	rr.report(warm.Metrics)
	if cfg.trace {
		if err := replayCore(r, warm.Captured); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runRouteECO measures a checkpoint decode plus warm reroute of a 5%
// perturbed chip with the repair rung on.
func runRouteECO(cfg config) (*result, error) {
	r := newResult()
	opt := routeOptions(cfg)
	opt.RepairTol = ecoRepairTol
	rr := &routeRun{cfg: cfg, r: r}
	var pert *costdist.Chip
	var base *costdist.RouterState
	var blob []byte
	var setups []float64
	for i := 0; i < ecoSetups; i++ {
		t0 := time.Now()
		c, err := generateChip(0)
		if err != nil {
			return nil, err
		}
		res, st, err := costdist.RouteChipCheckpoint(c, costdist.CD, opt)
		if err != nil {
			return nil, fmt.Errorf("base route: %w", err)
		}
		b, err := costdist.MarshalCheckpoint(st)
		if err != nil {
			return nil, fmt.Errorf("encoding checkpoint: %w", err)
		}
		p, _, err := costdist.PerturbChip(c, ecoPerturb, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("perturbing chip: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		checkRoute(r, c, res)
		rr.det.observe(r, "base", fingerprintOf(res.Metrics, len(b)))
		if blob != nil && !bytes.Equal(blob, b) {
			r.fail("determinism: checkpoint bytes differ between base routes")
		}
		pert, base, blob = p, st, b
	}
	r.setN("setup_s", median(setups), len(setups))

	rr.op = func(opt costdist.RouterOptions) (float64, *costdist.RouteResult, error) {
		t0 := time.Now()
		st, err := costdist.UnmarshalCheckpoint(blob)
		if err != nil {
			return 0, nil, fmt.Errorf("decoding checkpoint: %w", err)
		}
		res, _, err := costdist.RouteChipFrom(st, pert, costdist.CD, opt)
		dt := time.Since(t0).Seconds()
		if err != nil {
			return 0, nil, fmt.Errorf("warm route: %w", err)
		}
		checkRoute(r, pert, res)
		rr.det.observe(r, "route", fingerprintOf(res.Metrics, 0))
		return dt, res, nil
	}
	warm, err := rr.measure(opt)
	if err != nil {
		return nil, err
	}
	rr.report(warm.Metrics)
	if !cfg.trace {
		return r, nil
	}
	r.set("io.checkpoint_bytes", float64(len(blob)))
	var enc, dec []float64
	for i := 0; i < codecReps; i++ {
		t0 := time.Now()
		b, err := costdist.MarshalCheckpoint(base)
		enc = append(enc, time.Since(t0).Seconds())
		if err != nil || !bytes.Equal(b, blob) {
			r.fail("checkpoint re-encode differs from the first encode (err %v)", err)
		}
		t0 = time.Now()
		if _, err := costdist.UnmarshalCheckpoint(blob); err != nil {
			return nil, fmt.Errorf("decoding checkpoint: %w", err)
		}
		dec = append(dec, time.Since(t0).Seconds())
	}
	r.setN("io.checkpoint_encode_s", median(enc), codecReps)
	r.setN("io.checkpoint_decode_s", median(dec), codecReps)
	return r, replayCore(r, warm.Captured)
}

// sinkBuckets are the paper's |S| buckets the core latencies split by.
var sinkBuckets = []struct {
	name   string
	lo, hi int
}{
	{"s1-2", 1, 2}, {"s3-5", 3, 5}, {"s6-14", 6, 14}, {"s15-29", 15, 29}, {"s30-up", 30, 1 << 30},
}

// replayCore solves each instance once through one reused Solver —
// after a short untimed warm-up of its arena — and reports per-call
// latency overall and by sink bucket, throughput, and allocations.
func replayCore(r *result, ins []*costdist.Instance) error {
	if len(ins) == 0 {
		return fmt.Errorf("no instances to replay through the core solver")
	}
	s := costdist.NewSolver()
	opt := costdist.DefaultCDOptions()
	for _, in := range ins[:min(len(ins), 32)] {
		if _, err := s.SolveCD(in, opt); err != nil {
			return fmt.Errorf("core solve: %w", err)
		}
	}
	us := make([]float64, len(ins))
	var mem memWindow
	mem.begin()
	for i, in := range ins {
		t0 := time.Now()
		if _, err := s.SolveCD(in, opt); err != nil {
			return fmt.Errorf("core solve: %w", err)
		}
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	mem.end()
	n := len(ins)
	r.setN("core.solve_us_p50", median(us), n)
	r.setN("core.solve_us_p99", quantile(us, 0.99), n)
	r.setN("core.solves_per_s", float64(n)/(sum(us)/1e6), n)
	r.setN("core.allocs_per_solve", float64(mem.mallocs)/float64(n), n)
	r.setN("core.bytes_per_solve", float64(mem.bytes)/float64(n), n)
	for _, b := range sinkBuckets {
		var xs []float64
		for i, in := range ins {
			if k := len(in.Sinks); k >= b.lo && k <= b.hi {
				xs = append(xs, us[i])
			}
		}
		r.setN("core.solve_us_p50."+b.name, median(xs), len(xs))
	}
	return nil
}
