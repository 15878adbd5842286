// Command perfbench is the repository's benchmark. It drives the real-time
// streaming stack over loopback TCP and the paper's simulator matrix through
// their public entry points, checks what they produce, and prints every
// metric by name with its unit. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload lan-hub --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare old.txt new.txt
//
// --trace 0 reports the end-to-end metrics with the serving side's Trace and
// Metrics hooks off. --trace 1 runs the workload twice, untraced and then
// traced, reports the per-layer metrics of the traced half, and writes the
// traced half's Chrome trace under --trace-dir. NOTES.md lists the workloads,
// the metrics and what they cannot see.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	e2e, layer        metrics
	// problems lists failed output checks; any problem makes the run
	// incorrect.
	problems []string
	// notes are printed before the result, one per line.
	notes []string
}

func newOutcome() *outcome { return &outcome{e2e: metrics{}, layer: metrics{}} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	traceDir string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) *outcome{
	"lan-hub":    runStream,
	"wan-hub":    runStream,
	"lan-server": runStream,
	"wan-server": runStream,
	"sim":        runSim,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload: lan-hub, wan-hub, lan-server, wan-server or sim")
	seed := flag.Int64("seed", 1, "seed of the input schedule and of the simulator matrix")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	traceDir := flag.String("trace-dir", ".bench_build", "directory for the Chrome trace of a --trace 1 run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		traceDir: *traceDir,
	}
	out := run(cfg)
	if cfg.traced {
		fillLayers(out)
	}
	res := report(os.Stdout, cfg, out)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// layerUnits lists every per-layer metric with its unit. A --trace 1 run
// reports all of them; a layer the workload does not exercise reads 0.
var layerUnits = map[string]string{
	"hub.render_ms":           "ms",
	"hub.rendered_per_s":      "1/s",
	"hub.priority_per_s":      "1/s",
	"hub.lane_drops_per_s":    "1/s",
	"hub.session_drops_per_s": "1/s",
	"core.pace_wait_ms":       "ms",
	"codec.encode_ms":         "ms",
	"codec.bytes_per_frame":   "B",
	"codec.dirty_tile_ratio":  "ratio",
	"codec.cache_hit_ratio":   "ratio",
	"client.decode_ms":        "ms",
	"client.skipped_share":    "ratio",
	"client.resyncs_per_min":  "1/min",
	"engine.tx_ms":            "ms",
	"engine.frames_per_flush": "frames",
	"engine.queue_depth_max":  "sessions",
	"server.keyreqs_per_min":  "1/min",
	"server.sent_per_encoded": "ratio",
	"server.drops_per_s":      "1/s",
	"trace.mtp_render_ms":     "ms",
	"trace.mtp_encode_ms":     "ms",
	"trace.mtp_tx_ms":         "ms",
	"trace.mtp_decode_ms":     "ms",
	"trace.mtp_wait_ms":       "ms",
	"sim.cell_ms_p50":         "ms",
	"sim.cell_ms_p95":         "ms",
	"sim.cell_ms.NoReg":       "ms",
	"sim.cell_ms.IntMax":      "ms",
	"sim.cell_ms.RVSMax":      "ms",
	"sim.cell_ms.ODRMax":      "ms",
	"sim.cell_ms.ODRMaxNoPri": "ms",
	"sim.cell_ms.IntGoal":     "ms",
	"sim.cell_ms.RVSGoal":     "ms",
	"sim.cell_ms.ODRGoal":     "ms",
	"sim.frames_per_s":        "1/s",
	"sim.cells_per_s":         "1/s",
	"sim.anchor_misses":       "count",
	"sched.busy_share":        "ratio",
	"proc.cpu_util":           "cores",
	"proc.gc_cpu_share":       "ratio",
	"proc.heap_growth_mb":     "MB",
	"gen.lag_ms_p99":          "ms",
	"obs.trace_overhead_pct":  "%",
}

// fillLayers reports the layers a workload does not exercise as 0.
func fillLayers(out *outcome) {
	var absent []string
	for name, unit := range layerUnits {
		if _, ok := out.layer[name]; !ok {
			out.layer.set(name, 0, unit)
			absent = append(absent, name)
		}
	}
	if len(absent) > 0 {
		sort.Strings(absent)
		out.note("not exercised by this workload, reported as 0: %s", strings.Join(absent, " "))
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// hostInfo is printed with every result; compare refuses to set results
// from hosts with different CPU counts side by side.
type hostInfo struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Transport  string  `json:"transport"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func host(cfg config) hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Transport:  "loopback TCP",
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.window.Seconds(),
		Trace:      cfg.traced,
	}
	if cfg.workload == "sim" {
		h.Transport = "none (virtual time)"
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		h.Kernel = b.String()
	}
	return h
}

// report prints the host, the notes and every metric of the selected kind,
// and returns the result line.
func report(w *os.File, cfg config, out *outcome) result {
	hj, _ := json.Marshal(host(cfg)) // a struct of plain fields cannot fail to marshal
	fmt.Fprintf(w, "host %s\n", hj)
	for _, n := range out.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	ms := out.e2e
	if cfg.traced {
		ms = out.layer
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.problem("metric %s is not finite", n)
			m.Value = 0
			ms[n] = m
		}
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", out.attempted, out.failed)
	return result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: ms}
}

// compare reads two saved outputs of this program and prints each metric's
// ratio new/old. It refuses results taken on hosts with different CPU
// counts or GOMAXPROCS: per-frame CPU, rates and latencies all move with
// the number of cores, so such a comparison says nothing about the code.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD NEW (saved standard output of two runs)")
		return 2
	}
	var hosts [2]hostInfo
	var results [2]result
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		for _, l := range lines {
			if rest, ok := strings.CutPrefix(l, "host "); ok {
				if err := json.Unmarshal([]byte(rest), &hosts[i]); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s: host line: %v\n", path, err)
					return 2
				}
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &results[i]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: result line: %v\n", path, err)
			return 2
		}
		if hosts[i].NumCPU == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s has no host line\n", path)
			return 2
		}
	}
	if hosts[0].NumCPU != hosts[1].NumCPU || hosts[0].GOMAXPROCS != hosts[1].GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare: num_cpu/GOMAXPROCS %d/%d vs %d/%d\n",
			hosts[0].NumCPU, hosts[0].GOMAXPROCS, hosts[1].NumCPU, hosts[1].GOMAXPROCS)
		return 3
	}
	if hosts[0].Workload != hosts[1].Workload {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare workloads %s and %s\n", hosts[0].Workload, hosts[1].Workload)
		return 3
	}
	var names []string
	for n := range results[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := results[0].Metrics[n]
		b, ok := results[1].Metrics[n]
		if !ok {
			fmt.Printf("%-32s %14.6g -> missing\n", n, a.Value)
			continue
		}
		fmt.Printf("%-32s %14.6g -> %14.6g %-6s ratio %.3f\n", n, a.Value, b.Value, a.Unit, b.Value/a.Value)
	}
	return 0
}
