package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"odr"
	"odr/internal/obs"
)

// Load shape shared by the stream workloads.
const (
	// inputRate is each viewer's Poisson input rate, the paper's §5.3
	// rate of 2-5 priority frames per second, at its top.
	inputRate = 5.0
	// setupRepeats is how many times a run sets the workload up; setup_s
	// is their median and the last one is measured. The first few set-ups
	// of a process run slower (the heap and the thread pool still grow);
	// with 21 the median lies well past them.
	setupRepeats = 21
	// warmup separates set-up from the measured window, so lane encoders,
	// tile caches and socket buffers reach steady state first.
	warmup = 500 * time.Millisecond
	// maxGenLagMs bounds the generator's p99 lateness. MtP is timed from
	// when an input was due, so a late generator still counts against the
	// system, but beyond this bound the offered load was not the stated
	// one and the run is reported invalid.
	maxGenLagMs = 20.0
	// tracerEvents sizes the traced half's in-memory span ring; a run that
	// overflows it is reported invalid rather than silently truncated.
	tracerEvents = 1 << 18
)

// wanPath is pictor's GCE path: 512 KiB/s with 25 ms of propagation delay.
var wanPath = odr.ThrottleConfig{Bandwidth: 512 << 10, Delay: 25 * time.Millisecond}

// streamSpec is one stream workload's fixed shape.
type streamSpec struct {
	hub           bool // the shared Hub; otherwise one StreamServer per viewer
	width, height int
	fps           float64
	viewers       int
	path          *odr.ThrottleConfig // nil: clear loopback
	// drain is how long after the window an input may still be answered.
	drain time.Duration
}

// lan-hub's frame size. At 320x180 (230 KB frames) lan-hub's MtP followed
// the shared host's load more than the code: over 13 interleaved run pairs
// its p95 moved between 15 and 22 ms at 320x180 and between 10 and 14 ms
// at this size (NOTES.md, Steadiness).
const lanHubWidth, lanHubHeight = 240, 136

func streamSpecFor(name string) streamSpec {
	switch name {
	case "lan-hub":
		return streamSpec{hub: true, width: lanHubWidth, height: lanHubHeight, fps: 60, viewers: runtime.NumCPU(), drain: time.Second}
	case "wan-hub":
		return streamSpec{hub: true, width: 96, height: 54, fps: 60, viewers: 1, path: &wanPath, drain: 3 * time.Second}
	case "lan-server":
		return streamSpec{width: 320, height: 180, fps: 60, viewers: runtime.NumCPU(), drain: time.Second}
	default: // wan-server
		return streamSpec{width: 96, height: 54, fps: 60, viewers: 1, path: &wanPath, drain: 3 * time.Second}
	}
}

// rig is one running instance of a stream workload.
type rig struct {
	spec    streamSpec
	reg     *odr.MetricsRegistry
	hub     *odr.Hub
	srvs    []*odr.StreamServer
	viewers []*viewer
	setup   time.Duration
	wg      sync.WaitGroup
}

// startRig builds the serving side and its viewers and waits until every
// viewer has displayed a frame; setup is timed from the serving side's
// construction to that moment. Each viewer's bookkeeping is sized up front
// for a window of d, so that it does not grow the heap while heap_mb is
// being measured.
func startRig(spec streamSpec, traced bool, d time.Duration) (*rig, error) {
	r := &rig{spec: spec}
	// A traced hub records into one tracer. Each StreamServer gets its own,
	// because each counts its clock from its own constructor.
	newTracer := func() *odr.Tracer { return nil }
	if traced {
		r.reg = odr.NewMetricsRegistry()
		newTracer = func() *odr.Tracer { return odr.NewTracer(tracerEvents) }
	}
	var side serving
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	defer ln.Close()
	start := time.Now()
	if spec.hub {
		side.tr = newTracer()
		side.epoch = time.Now()
		r.hub = odr.NewHub(odr.HubConfig{Width: spec.width, Height: spec.height, TargetFPS: spec.fps, Trace: side.tr, Metrics: r.reg})
		side.epochHi = time.Now()
	}
	for i := range spec.viewers {
		cc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.stop()
			return nil, fmt.Errorf("dial: %w", err)
		}
		sc, err := ln.Accept()
		if err != nil {
			cc.Close()
			r.stop()
			return nil, fmt.Errorf("accept: %w", err)
		}
		serverConn := sc
		if spec.path != nil {
			serverConn = odr.Throttle(sc, *spec.path)
		}
		var srv *odr.StreamServer
		if !spec.hub {
			side.tr = newTracer()
			side.epoch = time.Now()
			srv = odr.NewStreamServer(serverConn, odr.StreamServerConfig{
				Width: spec.width, Height: spec.height, Policy: odr.StreamODR, TargetFPS: spec.fps,
				Trace: side.tr, Metrics: r.reg, SessionLabel: fmt.Sprintf("viewer%d", i),
			})
			side.epochHi = time.Now()
			r.srvs = append(r.srvs, srv)
		}
		v := newViewer(cc, spec.hub && spec.viewers > 1, side, frameBudget(spec, d))
		r.viewers = append(r.viewers, v)
		if spec.hub {
			r.hub.Attach(serverConn, 0, nil)
		} else {
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				_ = srv.Run() // its end is checked through the client
			}()
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			v.runErr = v.cli.Run()
		}()
	}
	if spec.hub {
		// The hub starts rendering once every viewer is attached, so its
		// first frame goes to all of them. Started before, its first render
		// races the attach, and set-up jumps by one frame period with the
		// outcome of that race.
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.hub.Run()
		}()
	}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for i, v := range r.viewers {
		select {
		case <-v.first:
		case <-timeout.C:
			r.stop()
			return nil, fmt.Errorf("viewer %d displayed no frame within 10s", i)
		}
	}
	r.setup = time.Since(start)
	return r, nil
}

// frameBudget bounds the frames one viewer receives in a run with a window
// of d: the target rate plus the priority frames inputs add, over set-up,
// warm-up, the window and the drain.
func frameBudget(spec streamSpec, d time.Duration) int {
	return int(1.5 * spec.fps * (d + warmup + spec.drain + time.Second).Seconds())
}

// stop tears the rig down and waits for every goroutine it started.
func (r *rig) stop() {
	for _, v := range r.viewers {
		v.cli.Stop()
	}
	if r.hub != nil {
		r.hub.Stop()
	}
	for _, srv := range r.srvs {
		srv.Stop()
	}
	r.wg.Wait()
}

// snap is the rig's counters at one moment.
type snap struct {
	at        time.Time
	cpu       time.Duration
	rt        runtimeCPU
	rendered  int64
	displayed []int64
	resyncs   int64
	// Per-connection server counters, summed over the servers.
	srvEncoded, srvSent, srvDropped, srvKeyReqs int64
	// Traced runs only.
	counters     map[string]int64
	hists        map[string][2]int64 // name -> count, sum (µs)
	passes, sent int64
}

// Registry names the traced run reads.
var (
	snapCounters = []string{
		obs.NameFramesEncoded, obs.NameFramesDropped, obs.NameFramesPriority,
		obs.NameTilesCoded, obs.NameTilesDirty,
		odr.NameCodecTileCacheHits, odr.NameCodecTileCacheMisses,
	}
	snapHists = []string{obs.NameRenderUs, obs.NameEncodeUs, obs.NameTxUs}
)

func (r *rig) snapshot() snap {
	s := snap{at: time.Now(), cpu: cpuTime(), rt: readRuntimeCPU()}
	for _, v := range r.viewers {
		s.displayed = append(s.displayed, v.displayed.Load())
		s.resyncs += v.cli.Report().Resyncs
	}
	if r.hub != nil {
		s.rendered = r.hub.Rendered()
		s.passes, s.sent = r.hub.SenderBatchStats()
	}
	for _, srv := range r.srvs {
		st := srv.Stats().Snapshot()
		s.rendered += st.Rendered
		s.srvEncoded += st.Encoded
		s.srvSent += st.Sent
		s.srvDropped += st.Dropped
		s.srvKeyReqs += st.KeyReqs
	}
	if r.reg != nil {
		s.counters = map[string]int64{}
		for _, n := range snapCounters {
			s.counters[n] = r.reg.Counter(n).Value()
		}
		s.hists = map[string][2]int64{}
		for _, n := range snapHists {
			h := r.reg.Histogram(n)
			s.hists[n] = [2]int64{h.Count(), h.Sum()}
		}
	}
	return s
}

// window is what one measured window of a stream workload produced.
type window struct {
	r      *rig
	s0, s1 snap
	// heapMB is the live heap when the window opens. It is not read at
	// close: there it carries the buffers that encoder, client reads and
	// decoders grew to the largest frame of the run, which jumps with a
	// single large frame (NOTES.md, heap_mb). heapGrowthMB is close minus
	// open.
	heapMB, heapGrowthMB float64
	queueMax             float64
	answers              [][]answer // per viewer
	deadline             time.Time
}

// measure runs the load on a started rig for d and drains it; the rig is
// stopped on return.
func measure(r *rig, d time.Duration, seed int64) *window {
	time.Sleep(warmup)
	var gauge func() float64
	if r.reg != nil && r.hub != nil {
		g := r.reg.Gauge(odr.NameHubSenderQueueDepth)
		gauge = g.Value
	}
	scheds := make([][]time.Duration, len(r.viewers))
	for i, v := range r.viewers {
		scheds[i] = poisson(rand.New(rand.NewSource(seed*7919+int64(i))), inputRate, d)
		v.inputs = make([]inputRec, 0, len(scheds[i]))
	}
	w := &window{r: r, heapMB: liveHeapMB()}
	smp := startSampler(10*time.Millisecond, gauge)
	w.s0 = r.snapshot()
	var gen sync.WaitGroup
	for i, v := range r.viewers {
		gen.Add(1)
		go func() {
			defer gen.Done()
			v.generate(w.s0.at, scheds[i])
		}()
	}
	time.Sleep(time.Until(w.s0.at.Add(d)))
	w.s1 = r.snapshot()
	_, w.queueMax = smp.finish()
	gen.Wait()
	// Drain: wait until every viewer has displayed an answer to its last
	// input, or until the drain window closes.
	w.deadline = w.s1.at.Add(r.spec.drain)
	for time.Now().Before(w.deadline) {
		done := true
		for _, v := range r.viewers {
			if n := len(v.inputs); n > 0 && v.maxEcho.Load() < v.inputs[n-1].id {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The heap again at window close, once the drain is over and before
	// teardown: what the window retained (per-layer; see heapMB).
	w.heapGrowthMB = liveHeapMB() - w.heapMB
	r.stop()
	for _, v := range r.viewers {
		w.answers = append(w.answers, v.answers(v.side.epochHi, w.deadline))
	}
	return w
}

// runStream runs one stream workload.
func runStream(cfg config) *outcome {
	spec := streamSpecFor(cfg.workload)
	out := newOutcome()
	out.note("transport: loopback TCP (127.0.0.1)%s", pathNote(spec))
	out.note("cpu_ms_per_frame is the whole process's CPU (serving side, decoding clients and load generator) per displayed frame")
	if !cfg.traced {
		var setups []float64
		var r *rig
		for k := range setupRepeats {
			last := k == setupRepeats-1
			var d time.Duration // a set-up torn down at once needs no room for a window
			if last {
				d = cfg.window
			}
			// Each set-up starts from a collected heap, as in a fresh
			// process, not with a collection of the previous rig's garbage
			// due at some point inside it.
			runtime.GC()
			var err error
			if r, err = startRig(spec, false, d); err != nil {
				out.problem("setup: %v", err)
				return out
			}
			setups = append(setups, r.setup.Seconds())
			if !last {
				r.stop()
			}
		}
		w := measure(r, cfg.window, cfg.seed)
		evaluate(out, w, out.e2e, nil)
		out.e2e.set("setup_s", quantile(setups, 0.5), "s")
		return out
	}
	// Traced mode: an untraced half, then a traced half of the same length;
	// per-layer metrics come from the traced half.
	half := cfg.window / 2
	var cpf [2]float64
	for i, traced := range []bool{false, true} {
		out.note("half %d of 2, traced=%v:", i+1, traced)
		r, err := startRig(spec, traced, half)
		if err != nil {
			out.problem("setup: %v", err)
			return out
		}
		w := measure(r, half, cfg.seed)
		e2e := metrics{}
		if traced {
			evaluate(out, w, e2e, out.layer)
			traceLayers(out, w, cfg)
		} else {
			evaluate(out, w, e2e, nil)
		}
		cpf[i] = e2e["cpu_ms_per_frame"].Value
	}
	out.layer.set("obs.trace_overhead_pct", 100*(cpf[1]/cpf[0]-1), "%")
	return out
}

func pathNote(spec streamSpec) string {
	if spec.path == nil {
		return ", clear path"
	}
	return fmt.Sprintf(", server-to-viewer writes shaped by odr.Throttle to %.0f KiB/s plus %v", spec.path.Bandwidth/1024, spec.path.Delay)
}

// evaluate checks a measured window and fills the end-to-end metrics into
// e2e and, when layer is non-nil, the per-layer metrics read from the
// window's counters.
func evaluate(out *outcome, w *window, e2e, layer metrics) {
	r, s0, s1 := w.r, w.s0, w.s1
	secs := s1.at.Sub(s0.at).Seconds()
	var mtps, lags []float64
	var attempted, failed int64
	for i, v := range r.viewers {
		if v.runErr != nil {
			out.problem("viewer %d: client ended with %v", i, v.runErr)
		}
		if v.genErr != nil {
			out.problem("viewer %d: sending an input failed: %v", i, v.genErr)
		}
		if v.frameErr != "" {
			out.problem("viewer %d: %s", i, v.frameErr)
		}
		sentAt := map[uint64]time.Time{}
		for _, in := range v.inputs {
			sentAt[in.id] = in.sent
		}
		if err := v.clientAgreement(sentAt); err != nil {
			out.problem("viewer %d: %v", i, err)
		}
		for _, a := range w.answers[i] {
			attempted++
			lags = append(lags, ms(a.in.sent.Sub(a.in.due)))
			if a.frame == nil {
				failed++
				continue
			}
			mtps = append(mtps, ms(a.frame.shown.Sub(a.in.due)))
		}
	}
	if r.hub != nil && len(r.viewers) > 1 {
		n, err := pixelsAgree(r.viewers)
		if err != nil {
			out.problem("%v", err)
		} else if n == 0 {
			out.problem("viewers displayed no seq in common; pixel identity unchecked")
		}
	}
	out.attempted += attempted
	out.failed += failed
	if attempted == 0 {
		out.problem("no input was sent")
	}
	lagP99 := quantile(lags, 0.99)
	if lagP99 > maxGenLagMs {
		out.problem("input generator ran late: p99 lag %.1f ms exceeds %.0f ms", lagP99, maxGenLagMs)
	}
	out.note("%d inputs, %d answered, %d failed; MtP p95 rests on %d samples beyond it", attempted, len(mtps), failed, len(mtps)-int(0.95*float64(len(mtps))))
	var totalShown, maxShown int64
	for i := range r.viewers {
		d := s1.displayed[i] - s0.displayed[i]
		totalShown += d
		maxShown = max(maxShown, d)
	}
	rendered := s1.rendered - s0.rendered
	if totalShown == 0 {
		out.problem("no frame displayed in the window")
	}
	mtpP50, mtpP95 := 0.0, 0.0
	if len(mtps) > 0 {
		mtpP50, mtpP95 = quantile(mtps, 0.5), quantile(mtps, 0.95)
	}
	e2e.set("mtp_p50_ms", mtpP50, "ms")
	e2e.set("mtp_p95_ms", mtpP95, "ms")
	e2e.set("delivered_fps", float64(totalShown)/float64(len(r.viewers))/secs, "1/s")
	e2e.set("cpu_ms_per_frame", ratio(ms(s1.cpu-s0.cpu), float64(totalShown)), "ms")
	// A hub renders once for every viewer; a StreamServer renders for its
	// own viewer only.
	perDisplay := ratio(float64(rendered), float64(maxShown))
	if r.hub == nil {
		perDisplay = ratio(float64(rendered), float64(totalShown))
	}
	e2e.set("renders_per_display", perDisplay, "ratio")
	e2e.set("heap_mb", w.heapMB, "MB")
	if layer == nil {
		return
	}

	// Per-layer numbers read from the counters the layers publish.
	perSec := func(n int64) float64 { return float64(n) / secs }
	dc := func(name string) int64 { return s1.counters[name] - s0.counters[name] }
	histMs := func(name string) float64 {
		a, b := s0.hists[name], s1.hists[name]
		return ratio(float64(b[1]-a[1]), float64(b[0]-a[0])) / 1000
	}
	encoded := dc(obs.NameFramesEncoded)
	layer.set("hub.render_ms", histMs(obs.NameRenderUs), "ms")
	layer.set("hub.rendered_per_s", perSec(rendered), "1/s")
	layer.set("hub.priority_per_s", perSec(dc(obs.NameFramesPriority)), "1/s")
	if r.hub != nil {
		// Frames rendered but never encoded were dropped at a lane.
		layer.set("hub.lane_drops_per_s", perSec(rendered-encoded), "1/s")
		layer.set("hub.session_drops_per_s", perSec(dc(obs.NameFramesDropped)-(rendered-encoded)), "1/s")
		layer.set("engine.frames_per_flush", ratio(float64(s1.sent-s0.sent), float64(s1.passes-s0.passes)), "frames")
		layer.set("engine.queue_depth_max", w.queueMax, "sessions")
	} else {
		layer.set("hub.lane_drops_per_s", 0, "1/s")
		layer.set("hub.session_drops_per_s", 0, "1/s")
		layer.set("engine.frames_per_flush", 0, "frames")
		layer.set("engine.queue_depth_max", 0, "sessions")
		layer.set("server.keyreqs_per_min", float64(s1.srvKeyReqs-s0.srvKeyReqs)/(secs/60), "1/min")
		layer.set("server.sent_per_encoded", ratio(float64(s1.srvSent-s0.srvSent), float64(s1.srvEncoded-s0.srvEncoded)), "ratio")
		layer.set("server.drops_per_s", perSec(s1.srvDropped-s0.srvDropped), "1/s")
	}
	layer.set("codec.encode_ms", histMs(obs.NameEncodeUs), "ms")
	layer.set("codec.dirty_tile_ratio", ratio(float64(dc(obs.NameTilesDirty)), float64(dc(obs.NameTilesCoded))), "ratio")
	hits, misses := dc(odr.NameCodecTileCacheHits), dc(odr.NameCodecTileCacheMisses)
	layer.set("codec.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	layer.set("engine.tx_ms", histMs(obs.NameTxUs), "ms")

	// Per-frame client numbers from the tee, over frames that arrived in
	// the window.
	var bytes, recv, shown []float64
	var decode []float64
	for _, v := range r.viewers {
		for _, f := range v.tee.frames {
			if f.arrived.Before(s0.at) || f.arrived.After(s1.at) {
				continue
			}
			bytes = append(bytes, float64(f.bytes))
			recv = append(recv, 1)
			if !f.shown.IsZero() {
				shown = append(shown, 1)
				decode = append(decode, ms(f.shown.Sub(f.arrived)))
			}
		}
	}
	layer.set("codec.bytes_per_frame", mean(bytes), "B")
	layer.set("client.decode_ms", mean(decode), "ms")
	layer.set("client.skipped_share", 1-ratio(float64(len(shown)), float64(len(recv))), "ratio")
	layer.set("client.resyncs_per_min", float64(s1.resyncs-s0.resyncs)/(secs/60), "1/min")
	layer.set("proc.cpu_util", (s1.cpu-s0.cpu).Seconds()/secs, "cores")
	layer.set("proc.gc_cpu_share", gcShare(s0.rt, s1.rt), "ratio")
	layer.set("proc.heap_growth_mb", w.heapGrowthMB, "MB")
	layer.set("gen.lag_ms_p99", lagP99, "ms")
}

// traceLayers writes the traced half's Chrome traces and splits each
// answered input's MtP into the spans of the frame that answered it. The
// benchmark adds its own spans first: per input, due -> sent and sent ->
// displayed, keyed by the input id the serving side uses; per frame, bytes
// in -> displayed (recorded live), keyed by the frame seq the serving
// side's render, encode and tx spans carry. A hub has one tracer; each
// StreamServer has its own.
func traceLayers(out *outcome, w *window, cfg config) {
	r := w.r
	var tracers []*odr.Tracer
	spans := map[*odr.Tracer]map[string]map[uint64][]obs.Event{}
	for i, v := range r.viewers {
		tr := v.side.tr
		bits := v.sessionBits()
		for _, a := range w.answers[i] {
			key := bits | a.in.id
			tr.Span(obs.TrackInput, "due-to-sent", key, v.side.at(a.in.due), v.side.at(a.in.sent))
			if a.frame != nil {
				tr.Span(obs.TrackInput, "sent-to-display", key, v.side.at(a.in.sent), v.side.at(a.frame.shown))
			}
		}
		if spans[tr] == nil {
			tracers = append(tracers, tr)
			spans[tr] = map[string]map[uint64][]obs.Event{}
		}
	}
	var pace float64
	var paces int
	for _, tr := range tracers {
		if d := tr.Dropped(); d > 0 {
			out.problem("tracer ring overflowed: %d events lost", d)
		}
		byName := spans[tr]
		for _, ev := range tr.Events() {
			if ev.Phase != obs.PhaseSpan {
				continue
			}
			if byName[ev.Name] == nil {
				byName[ev.Name] = map[uint64][]obs.Event{}
			}
			byName[ev.Name][ev.Seq] = append(byName[ev.Name][ev.Seq], ev)
			if ev.Name == "pace" {
				pace += ms(ev.Dur)
				paces++
			}
		}
	}
	layer := out.layer
	layer.set("core.pace_wait_ms", ratio(pace, float64(paces)), "ms")

	// Each answered input's MtP interval [due, displayed] against the
	// spans of its answering frame: their clipped union is the time some
	// layer was working on that frame; the rest is the MtP span's self
	// time, spent waiting (for the pacer, in queues, on the path).
	stages := []string{"render", "encode", "tx", "decode"}
	sums := make([]float64, len(stages))
	var wait float64
	n := 0
	for i, v := range r.viewers {
		at := v.side.at
		byName := spans[v.side.tr]
		for _, a := range w.answers[i] {
			if a.frame == nil {
				continue
			}
			lo, hi := at(a.in.due), at(a.frame.shown)
			var ivs [][2]time.Duration
			for k, name := range stages {
				// The viewer's own decode is the answering frame's bytes in
				// -> displayed; the other stages come from the layers' spans.
				s, e := at(a.frame.arrived), at(a.frame.shown)
				if name != "decode" {
					ev, ok := pickSpan(byName[name][a.frame.seq], hi)
					if !ok {
						continue
					}
					s, e = ev.TS, ev.TS+ev.Dur
				}
				s, e = max(s, lo), min(e, hi)
				if e > s {
					sums[k] += ms(e - s)
					ivs = append(ivs, [2]time.Duration{s, e})
				}
			}
			wait += ms(hi-lo) - ms(unionLen(ivs))
			n++
		}
	}
	names := []string{"trace.mtp_render_ms", "trace.mtp_encode_ms", "trace.mtp_tx_ms", "trace.mtp_decode_ms"}
	for k, name := range names {
		layer.set(name, ratio(sums[k], float64(n)), "ms")
	}
	layer.set("trace.mtp_wait_ms", ratio(wait, float64(n)), "ms")

	for k, tr := range tracers {
		name := fmt.Sprintf("perfbench-trace-%s-seed%d.json", cfg.workload, cfg.seed)
		if len(tracers) > 1 {
			name = fmt.Sprintf("perfbench-trace-%s-seed%d-server%d.json", cfg.workload, cfg.seed, k)
		}
		path := filepath.Join(cfg.traceDir, name)
		if err := writeTrace(tr, path); err != nil {
			out.problem("writing the trace: %v", err)
			return
		}
		out.note("trace: %s (%d events)", path, tr.Recorded())
	}
}

// pickSpan returns, of the spans recorded for one frame, the last one that
// ended by t (the hub sends one tx span per viewer).
func pickSpan(evs []obs.Event, t time.Duration) (obs.Event, bool) {
	var best obs.Event
	ok := false
	for _, ev := range evs {
		if ev.TS+ev.Dur <= t && (!ok || ev.TS+ev.Dur > best.TS+best.Dur) {
			best, ok = ev, true
		}
	}
	return best, ok
}

// unionLen is the total length covered by the intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	var curS, curE time.Duration
	for i, iv := range ivs {
		if i == 0 || iv[0] > curE {
			total += curE - curS
			curS, curE = iv[0], iv[1]
			continue
		}
		curE = max(curE, iv[1])
	}
	return total + curE - curS
}

func writeTrace(tr *odr.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
