package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"odr"
	"odr/internal/experiments"
	"odr/internal/obs"
	"odr/internal/pictor"
	"odr/internal/sched"
)

// policyMetric names each policy of the matrix in a metric name (the
// paper's labels contain '/').
var policyMetric = map[experiments.PolicyID]string{
	experiments.NoReg:       "NoReg",
	experiments.IntMax:      "IntMax",
	experiments.RVSMax:      "RVSMax",
	experiments.ODRMax:      "ODRMax",
	experiments.ODRMaxNoPri: "ODRMaxNoPri",
	experiments.IntGoal:     "IntGoal",
	experiments.RVSGoal:     "RVSGoal",
	experiments.ODRGoal:     "ODRGoal",
}

// simCell is one coordinate of the evaluation matrix, in Prefetch's order.
type simCell struct {
	b  pictor.Benchmark
	g  pictor.PlatformGroup
	id experiments.PolicyID
}

func matrixCells() []simCell {
	var cells []simCell
	for _, g := range pictor.Groups {
		for _, b := range pictor.Benchmarks {
			for _, id := range experiments.Table2Policies {
				cells = append(cells, simCell{b, g, id})
			}
		}
	}
	return cells
}

// cellOut is what the benchmark keeps of one cell's result.
type cellOut struct {
	wall                float64 // ms
	rendered, displayed int64
	digest              uint64
}

// simTracerEvents sizes the traced half's span ring: one span per cell and
// one per pass, for passes of a few seconds each.
const simTracerEvents = 1 << 14

// matrixRun is one pass over the full matrix.
type matrixRun struct {
	setup   time.Duration // runner + matrix construction until the first cell starts
	wall    time.Duration // first cell start until the last cell's end
	cpu     time.Duration
	cells   []cellOut
	anchors []experiments.FidelityRow
}

// runMatrix builds a runner with one worker per CPU and no result cache,
// runs every cell of the evaluation matrix through it (what Prefetch does,
// with each cell's Matrix.Get timed), then checks the fidelity anchors.
// With a tracer, each cell's Matrix.Get and the Fidelity call become spans
// (keyed by cell index and pass) on the tracer's clock, which counts from
// epoch.
func runMatrix(seed int64, workers int, cells []simCell, tr *odr.Tracer, epoch time.Time, pass int) matrixRun {
	var run matrixRun
	cpu0 := cpuTime()
	t0 := time.Now()
	runner := sched.New(sched.Options{Workers: workers})
	m := experiments.NewMatrix(experiments.Options{Seed: seed, Runner: runner})
	var first atomic.Int64
	run.cells = sched.Map(workers, len(cells), func(i int) cellOut {
		s := time.Now()
		first.CompareAndSwap(0, int64(s.Sub(t0)))
		c := cells[i]
		res := m.Get(c.b, c.g, c.id)
		end := time.Now()
		tr.Span(obs.TrackRender, "cell", uint64(i), s.Sub(epoch), end.Sub(epoch))
		out := cellOut{wall: ms(end.Sub(s)), rendered: res.FramesRendered, displayed: res.FramesDisplayed}
		h := fnv.New64a()
		for _, x := range []float64{
			res.RenderFPS, res.EncodeFPS, res.ClientFPS, res.GapMean, res.GapMax,
			res.MtP.Mean(), float64(res.MtP.N()), res.MissRate, res.ReadTimeNs, res.IPC,
			res.PowerWatts, res.EnergyJoules, float64(res.FramesRendered), float64(res.FramesDisplayed),
			float64(res.FramesDropped), float64(res.PriorityFrames), res.BandwidthMbps, float64(res.MaxQueueBytes),
		} {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		out.digest = h.Sum64()
		return out
	})
	run.setup = time.Duration(first.Load())
	run.wall = time.Since(t0) - run.setup
	run.cpu = cpuTime() - cpu0
	fs := time.Now()
	run.anchors = experiments.Fidelity(m)
	tr.Span(obs.TrackClient, "fidelity", uint64(pass), fs.Sub(epoch), time.Since(epoch))
	return run
}

// runSim runs the simulator workload: full matrix passes with the same
// seed until the window is spent, at least two so that every pass can be
// checked against the first.
func runSim(cfg config) *outcome {
	out := newOutcome()
	out.note("transport: none; the matrix runs core on virtual time")
	workers := runtime.NumCPU()
	cells := matrixCells()
	if !cfg.traced {
		p := simPasses(cfg.seed, workers, cells, cfg.window, 2, nil)
		checkPasses(out, cells, p.runs)
		simMetrics(out, p, workers, out.e2e, nil)
		return out
	}
	// Traced mode: an untraced half, then a half that also records each
	// cell as a span; per-layer metrics come from the traced half.
	var halves [2]passes
	tr := odr.NewTracer(simTracerEvents)
	halves[0] = simPasses(cfg.seed, workers, cells, cfg.window/2, 1, nil)
	halves[1] = simPasses(cfg.seed, workers, cells, cfg.window/2, 1, tr)
	checkPasses(out, cells, append(append([]matrixRun(nil), halves[0].runs...), halves[1].runs...))
	out.note("half 1 of 2:")
	simMetrics(out, halves[0], workers, metrics{}, out.layer)
	untraced := out.layer["sim.cells_per_s"].Value
	out.layer = metrics{}
	out.note("half 2 of 2:")
	simMetrics(out, halves[1], workers, metrics{}, out.layer)
	out.layer.set("obs.trace_overhead_pct", 100*(untraced/out.layer["sim.cells_per_s"].Value-1), "%")
	if d := tr.Dropped(); d > 0 {
		out.problem("tracer ring overflowed: %d events lost", d)
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("perfbench-trace-sim-seed%d.json", cfg.seed))
	if err := writeTrace(tr, path); err != nil {
		out.problem("writing the trace: %v", err)
	} else {
		out.note("trace: %s (%d events)", path, tr.Recorded())
	}
	return out
}

// passes is a sequence of matrix passes with the process-wide numbers
// taken around them.
type passes struct {
	runs   []matrixRun
	heapMB float64
	gc     float64 // share of busy CPU spent in the garbage collector
}

// simPasses runs matrix passes until d is spent, and at least atLeast of
// them; tr, when non-nil, records their cells as spans.
func simPasses(seed int64, workers int, cells []simCell, d time.Duration, atLeast int, tr *odr.Tracer) passes {
	smp := startSampler(10*time.Millisecond, nil)
	rt0 := readRuntimeCPU()
	start := time.Now()
	var runs []matrixRun
	for len(runs) < atLeast || time.Since(start)+runs[len(runs)-1].wall < d {
		runs = append(runs, runMatrix(seed, workers, cells, tr, start, len(runs)))
	}
	p := passes{runs: runs, gc: gcShare(rt0, readRuntimeCPU())}
	p.heapMB, _ = smp.finish()
	return p
}

// checkPasses counts every cell run as an operation, and fails each one
// whose result differs from pass 0's with the same seed. Fidelity anchors
// outside their tolerance are reported (sim.anchor_misses and a note), not
// failed: one anchor is seed-sensitive at 60 s per cell (see NOTES.md).
func checkPasses(out *outcome, cells []simCell, runs []matrixRun) {
	if len(runs) < 2 {
		out.problem("only %d matrix pass; the repeat is unchecked", len(runs))
	}
	out.attempted += int64(len(runs) * len(cells))
	for k, r := range runs[1:] {
		differ := 0
		for i := range r.cells {
			if r.cells[i].digest != runs[0].cells[i].digest {
				differ++
			}
		}
		if differ > 0 {
			out.failed += int64(differ)
			out.problem("matrix pass %d: %d cells differ from pass 0 with the same seed", k+1, differ)
		}
	}
	for _, r := range runs {
		if len(r.anchors) == 0 {
			out.problem("fidelity produced no anchors")
		}
		for _, a := range r.anchors {
			if math.IsNaN(a.Measured) || math.IsInf(a.Measured, 0) {
				out.problem("anchor %q measured %v", a.Name, a.Measured)
			}
		}
	}
	for _, a := range runs[0].anchors {
		if !a.OK {
			out.note("anchor outside tolerance: %s: paper %.1f, measured %.1f (±%.0f%%)", a.Name, a.Paper, a.Measured, 100*a.Tolerance)
		}
	}
}

// simMetrics fills the sim workload's end-to-end metrics into e2e and, when
// layer is non-nil, its per-layer metrics.
func simMetrics(out *outcome, p passes, workers int, e2e, layer metrics) {
	cells := matrixCells()
	runs := p.runs
	var setups, walls []float64
	var wall, cpu time.Duration
	var rendered, displayed int64
	var busy float64
	perPolicy := map[string][]float64{}
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
		wall += r.wall
		cpu += r.cpu
		for i, c := range r.cells {
			walls = append(walls, c.wall)
			busy += c.wall
			rendered += c.rendered
			displayed += c.displayed
			name := policyMetric[cells[i].id]
			perPolicy[name] = append(perPolicy[name], c.wall)
		}
	}
	secs := wall.Seconds()
	out.note("%d matrix passes of %d cells on %d workers; cell-latency p95 rests on %d samples beyond it", len(runs), len(cells), workers, len(walls)-int(0.95*float64(len(walls))))
	e2e.set("setup_s", quantile(setups, 0.5), "s")
	e2e.set("mtp_p50_ms", quantile(walls, 0.5), "ms")
	e2e.set("mtp_p95_ms", quantile(walls, 0.95), "ms")
	e2e.set("delivered_fps", float64(displayed)/secs, "1/s")
	e2e.set("cpu_ms_per_frame", ratio(ms(cpu), float64(displayed)), "ms")
	e2e.set("renders_per_display", ratio(float64(rendered), float64(displayed)), "ratio")
	e2e.set("heap_mb", p.heapMB, "MB")
	if layer == nil {
		return
	}
	layer.set("sim.cell_ms_p50", quantile(walls, 0.5), "ms")
	layer.set("sim.cell_ms_p95", quantile(walls, 0.95), "ms")
	for _, name := range policyMetric {
		layer.set("sim.cell_ms."+name, mean(perPolicy[name]), "ms")
	}
	layer.set("sim.frames_per_s", float64(rendered)/secs, "1/s")
	layer.set("sim.cells_per_s", float64(len(walls))/secs, "1/s")
	layer.set("sched.busy_share", busy/1000/(float64(workers)*secs), "ratio")
	layer.set("proc.cpu_util", cpu.Seconds()/secs, "cores")
	layer.set("proc.gc_cpu_share", p.gc, "ratio")
	misses := 0
	for _, a := range runs[0].anchors {
		if !a.OK {
			misses++
		}
	}
	layer.set("sim.anchor_misses", float64(misses), "count")
}
