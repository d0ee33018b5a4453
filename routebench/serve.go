package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"costdist"
	"costdist/internal/service"
)

const (
	// About one request in repeatEvery re-sends one of the last
	// repeatWindow distinct documents, which the cache still holds.
	repeatEvery  = 4
	repeatWindow = 64
	// Every refEvery-th distinct document, and every refEvery-th cache
	// hit, is compared byte for byte with the library's SolveCD tree.
	refEvery = 8
	// warmupRequests go to the warm-up chip's documents before the
	// window, untimed.
	warmupRequests = 400
	serveSetups    = 15
	// windowSlices splits the measured window; the end-to-end numbers
	// are the median over the keptSlices least disturbed slices.
	windowSlices = 5
	keptSlices   = 3
)

// rng is splitmix64: small, fast and fully determined by its seed.
type rng struct{ s uint64 }

func (g *rng) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }

// makePlan lists the document id of every request position until all
// n documents are used: a new document, or with probability
// 1/repeatEvery one of the last repeatWindow distinct ones.
func makePlan(seed uint64, n int) []int32 {
	g := rng{s: seed}
	var plan []int32
	for next := int32(0); next < int32(n); {
		if next > 0 && g.intn(repeatEvery) == 0 {
			lo := max(0, next-repeatWindow)
			plan = append(plan, lo+int32(g.intn(int(next-lo))))
			continue
		}
		plan = append(plan, next)
		next++
	}
	return plan
}

// sampleSteal reads the host's steal time at n instants spaced every
// apart, starting now; the returned function waits for the last one.
func sampleSteal(every time.Duration, n int) func() []uint64 {
	out := make([]uint64, n)
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		for k := range out {
			time.Sleep(time.Until(start.Add(time.Duration(k) * every)))
			out[k] = stealTicks()
		}
	}()
	return func() []uint64 {
		<-done
		return out
	}
}

// stealTicks is the machine's summed steal time in clock ticks, the
// eighth value of the cpu line of /proc/stat; 0 where it is missing.
func stealTicks() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64) // unparsable reads as no steal
	return v
}

// server is the in-process service on a loopback port.
type server struct {
	svc  *service.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(procs int) (*server, error) {
	svc, err := service.New(service.Config{Shards: procs, WorkersPerShard: 1})
	if err != nil {
		return nil, fmt.Errorf("starting service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background()) // the listen error is the one to report
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{svc: svc, hs: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String() + "/v1/solve", done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and the service down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.svc.Shutdown(ctx))
}

// reply is one completed request as the client saw it. The client
// only records it; checkReplies checks it after the window, so no
// check runs inside the measured loop.
type reply struct {
	id     int32
	status int
	cache  string
	ms     float64
	at     float64 // completion, seconds into the window
	body   []byte
}

// client posts the plan's documents in a closed loop, one request at a
// time, until the plan or the window runs out.
func client(hc *http.Client, url string, docs [][]byte, plan []int32, pos *atomic.Int64, start, deadline time.Time) ([]reply, error) {
	var out []reply
	for {
		p := pos.Add(1) - 1
		if p >= int64(len(plan)) || time.Now().After(deadline) {
			return out, nil
		}
		id := plan[p]
		t0 := time.Now()
		resp, err := hc.Post(url, "application/json", bytes.NewReader(docs[id]))
		if err != nil {
			return out, fmt.Errorf("posting document %d: %w", id, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return out, fmt.Errorf("reading reply to document %d: %w", id, err)
		}
		out = append(out, reply{id: id, status: resp.StatusCode, cache: resp.Header.Get("X-Cache"),
			ms: float64(time.Since(t0).Nanoseconds()) / 1e6, at: time.Since(start).Seconds(), body: body})
	}
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// checkServed decodes a served body against its document, checks the
// tree, and returns its objective.
func checkServed(doc, body []byte) (float64, error) {
	in, err := costdist.ParseInstance(doc)
	if err != nil {
		return 0, err
	}
	tr, err := costdist.UnmarshalTree(in, body)
	if err != nil {
		return 0, err
	}
	sinks := make([]costdist.Vertex, len(in.Sinks))
	for k, s := range in.Sinks {
		sinks[k] = s.V
	}
	if err := checkTree(in.G, in.Root, sinks, tr); err != nil {
		return 0, err
	}
	ev, err := costdist.Evaluate(in, tr)
	if err != nil {
		return 0, err
	}
	return ev.Total, nil
}

// closedLoop runs procs clients against url and returns every reply,
// the window's wall time and the runtime work it did.
func closedLoop(cfg config, url string, docs [][]byte, plan []int32, window time.Duration) ([]reply, float64, memWindow, error) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.procs, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	var pos atomic.Int64
	var mem memWindow
	outs := make([][]reply, cfg.procs)
	errs := make([]error, cfg.procs)
	var wg sync.WaitGroup
	mem.begin()
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < cfg.procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c], errs[c] = client(hc, url, docs, plan, &pos, start, deadline)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	mem.end()
	var all []reply
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, elapsed, mem, errors.Join(errs...)
}

// runServeSolve measures /v1/solve throughput and latency on loopback.
func runServeSolve(cfg config) (*result, error) {
	r := newResult()
	var srv *server
	var docs, warmDocs [][]byte
	var plan []int32
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if docs, warmDocs, err = buildCorpus(cfg.seed); err != nil {
			return nil, err
		}
		plan = makePlan(cfg.seed, len(docs))
		s, err := startServer(cfg.procs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		srv = s
	}
	r.setN("setup_s", median(setups), len(setups))
	defer func() {
		if err := srv.stop(); err != nil {
			r.fail("stopping the service: %v", err)
		}
	}()
	// The warm-up posts a chip the window never sends, so the window
	// starts with none of its documents cached.
	warmPlan := makePlan(^cfg.seed, len(warmDocs))[:warmupRequests]
	if _, _, _, err := closedLoop(cfg, srv.url, warmDocs, warmPlan, time.Hour); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	waitSteal := sampleSteal(window/windowSlices, windowSlices+1)
	replies, elapsed, mem, err := closedLoop(cfg, srv.url, docs, plan, window)
	steal := waitSteal()
	if err != nil {
		return nil, err
	}
	// The checks below parse every served document again; the peak
	// resident set is read before them, so it is the service's.
	r.set("peak_rss_mb", peakRSSMB())
	obj, err := checkReplies(r, docs, replies)
	if err != nil {
		return nil, err
	}

	var hits, misses []float64
	rejected := 0
	for _, rp := range replies {
		switch {
		case rp.status == http.StatusServiceUnavailable:
			rejected++
		case rp.cache == "hit":
			hits = append(hits, rp.ms)
		case rp.cache == "miss":
			misses = append(misses, rp.ms)
		}
	}
	n := len(replies)
	ok := n - r.failed
	// The end-to-end numbers come from equal time slices of the window.
	// Other virtual machines on the host take processor time from this
	// one (steal time in /proc/stat), and every wall-clock number
	// inflates with it, so they are the median over the keptSlices
	// slices that lost the least time to steal.
	width := elapsed / windowSlices
	lat := make([][]float64, windowSlices)
	done := make([]float64, windowSlices)
	for _, rp := range replies {
		i := min(int(rp.at/width), windowSlices-1)
		lat[i] = append(lat[i], rp.ms)
		if rp.status == http.StatusOK {
			done[i]++
		}
	}
	slices := make([]int, windowSlices)
	for i := range slices {
		slices[i] = i
	}
	sort.SliceStable(slices, func(a, b int) bool {
		return steal[slices[a]+1]-steal[slices[a]] < steal[slices[b]+1]-steal[slices[b]]
	})
	var p50s, p99s, rps []float64
	for _, i := range slices[:keptSlices] {
		p50s = append(p50s, median(lat[i]))
		p99s = append(p99s, quantile(lat[i], 0.99))
		rps = append(rps, done[i]/width)
	}
	r.setN("route_s", median(p50s)/1e3, n)
	r.setN("objective", obj, objectiveDocs)
	r.setN("solve_rps", median(rps), ok)
	r.setN("solve_p50_ms", median(p50s), n)
	r.setN("solve_p99_ms", median(p99s), n)
	if !cfg.trace {
		return r, nil
	}
	mem.setRuntime(r, n)
	r.setN("service.hit_rate", float64(len(hits))/float64(n), n)
	r.setN("service.hit_ms_p50", median(hits), len(hits))
	r.setN("service.miss_ms_p50", median(misses), len(misses))
	r.setN("service.miss_ms_p99", quantile(misses, 0.99), len(misses))
	r.set("service.rejected", float64(rejected))
	ins := make([]*costdist.Instance, objectiveDocs)
	for id := range ins {
		if ins[id], err = costdist.ParseInstance(docs[id]); err != nil {
			return nil, err
		}
	}
	return r, replayCore(r, ins)
}

// checkReplies counts every reply and fails those that were not 200 or
// carried no X-Cache verdict. The first body for a document must decode
// to a valid tree of it, and every later body must be the same bytes.
// Every refEvery-th distinct document's first body, and every
// refEvery-th cache hit, must equal the library's SolveCD tree byte for
// byte. It returns the summed objective of the first objectiveDocs
// documents' served trees, all of which the window must reach.
func checkReplies(r *result, docs [][]byte, replies []reply) (float64, error) {
	first := map[int32][]byte{}
	want := map[int32][]byte{}
	objs := make([]float64, objectiveDocs)
	scored := make([]bool, objectiveDocs)
	nhit := 0
	for _, rp := range replies {
		r.attempted++
		switch {
		case rp.status != http.StatusOK:
			r.fail("document %d: status %d", rp.id, rp.status)
			continue
		case rp.cache != "hit" && rp.cache != "miss":
			r.fail("document %d: X-Cache %q", rp.id, rp.cache)
			continue
		}
		sampled := rp.cache == "hit" && nhit%refEvery == 0
		if rp.cache == "hit" {
			nhit++
		}
		if prev, ok := first[rp.id]; ok {
			if !bytes.Equal(prev, rp.body) {
				r.fail("document %d: replies differ", rp.id)
				continue
			}
		} else {
			obj, err := checkServed(docs[rp.id], rp.body)
			if err != nil {
				r.fail("document %d: %v", rp.id, err)
				continue
			}
			first[rp.id] = rp.body
			if rp.id < objectiveDocs {
				objs[rp.id], scored[rp.id] = obj, true
			}
			sampled = sampled || rp.id%refEvery == 0
		}
		if !sampled {
			continue
		}
		if want[rp.id] == nil {
			in, err := costdist.ParseInstance(docs[rp.id])
			if err != nil {
				return 0, err
			}
			tr, err := costdist.SolveCD(in, costdist.DefaultCDOptions())
			if err != nil {
				return 0, fmt.Errorf("library solve of document %d: %w", rp.id, err)
			}
			if want[rp.id], err = costdist.MarshalTree(in, tr); err != nil {
				return 0, err
			}
		}
		if !bytes.Equal(want[rp.id], rp.body) {
			r.fail("document %d: served tree differs from library SolveCD (%s)", rp.id, rp.cache)
		}
	}
	if n := count(scored); n < objectiveDocs && r.failed == 0 {
		return 0, fmt.Errorf("the window served only %d of the first %d documents; lengthen --seconds", n, objectiveDocs)
	}
	return sum(objs), nil
}
