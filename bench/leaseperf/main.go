// Command leaseperf is the repository's benchmark: four workloads
// against deployments booted in this process, end-to-end metrics with
// fixed regression bounds, and a per-layer table whose rows, with a
// named residue, add up to the end-to-end CPU figure.
//
//	bash bench/run.sh -seed 1                 every workload, untraced
//	bash bench/run.sh -seed 1 -traced         … and the traced pass with the layer tables
//	bash bench/run.sh -compare a.json b.json  hold two result files against the bounds
//	bash bench/run.sh --workload v_mix --seed 1 --seconds 20 --trace 0
//
// The last form is the one the benchmark driver uses: one workload, one
// JSON object as the last line of standard output. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// Durations of a full run; the driver's form passes its own.
const (
	fullSeconds = 30.0 // measured window per workload
	warmShare   = 0.1  // warm-up, as a share of the window
	timedSetups = 3    // set-ups per run; setup_s is their median
	// tracedShare is the traced pass's window as a share of the
	// untraced one.
	tracedShare = 1.0 / 3
)

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload and print the driver's JSON line")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same ops")
		seconds  = flag.Float64("seconds", fullSeconds, "measured window per workload, seconds")
		trace    = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of a traced run instead")
		traced   = flag.Bool("traced", false, "after the untraced pass, rerun every workload traced and print the layer tables")
		outDir   = flag.String("out", "bench/out", "directory for results.json and the trace files")
		compare  = flag.Bool("compare", false, "compare two results.json files (arguments) against the bounds in BENCHMARK.json")
		specFile = flag.String("spec-file", "BENCHMARK.json", "with -compare: the file holding the bounds")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as the metric catalogue defines it")
		cat      = flag.Bool("catalogue", false, "print the workload and metric catalogue as markdown")
	)
	flag.Parse()
	switch {
	case *spec:
		os.Stdout.Write(append(specJSON(), '\n'))
	case *cat:
		printCatalogue(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		breaches, err := compareFiles(os.Stdout, *specFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if breaches > 0 {
			os.Exit(1)
		}
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if !runOne(w, *seed, *seconds, *trace == 1, *outDir) {
			os.Exit(1)
		}
	default:
		if !runAll(*seed, *seconds, *traced, *outDir) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "leaseperf:", err)
	os.Exit(2)
}

func untracedParams(seed int64, seconds float64) params {
	return params{seed: seed, seconds: seconds, warmup: seconds * warmShare, sizeDiv: 1, setups: timedSetups}
}

// tracedPair runs w untraced and then traced, with the same seed and
// window, one set-up each, and returns both: the second gives the
// per-layer metrics, the first is the base of the tracing overhead.
func tracedPair(w workload, seed int64, seconds float64) (ref, tr *runData, err error) {
	p := params{seed: seed, seconds: seconds, warmup: seconds * warmShare, sizeDiv: 1, setups: 1}
	if ref, err = runWorkload(w, p); err != nil {
		return nil, nil, err
	}
	p.traced = true
	if tr, err = runWorkload(w, p); err != nil {
		return nil, nil, err
	}
	return ref, tr, nil
}

// driverLine is the object the benchmark driver reads from the last
// line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's form: one workload, its metrics by name, and
// the JSON line. With traced it spends the window on an untraced and a
// traced half and reports the per-layer metrics; without, the
// end-to-end ones.
func runOne(w workload, seed int64, seconds float64, traced bool, outDir string) bool {
	var res result
	if traced {
		ref, tr, err := tracedPair(w, seed, seconds/2)
		if err != nil {
			fatal(err)
		}
		res = tr.toResult(ref)
		// A failure in the reference half fails the run too.
		if refRes := ref.toResult(nil); !refRes.Correct {
			res.Correct = false
			res.Failed += refRes.Failed
			res.Void = append(res.Void, refRes.Void...)
		}
		res.Attempted += ref.attempted
		printResult(os.Stdout, res)
		printLayerTables(os.Stdout, tr)
		if err := saveTrace(outDir, tr); err != nil {
			fatal(err)
		}
	} else {
		rd, err := runWorkload(w, untracedParams(seed, seconds))
		if err != nil {
			fatal(err)
		}
		res = rd.toResult(nil)
		printResult(os.Stdout, res)
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	from := res.E2E
	if traced {
		from = res.Layer
	}
	for name, v := range from {
		line.Metrics[name] = driverValue{Value: v.Value, Unit: v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	return res.Correct
}

// resultsFile is bench/out/results.json.
type resultsFile struct {
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	GoMaxProcs int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go"`
	Results    []result `json:"results"`
}

// runAll is the full run: every workload untraced, then — with traced —
// every workload's traced pair at a third of the window, the layer
// tables and the feature taxes.
func runAll(seed int64, seconds float64, traced bool, outDir string) bool {
	fmt.Printf("# leaseperf seed=%d window=%gs GOMAXPROCS=%d %s\n", seed, seconds, runtime.GOMAXPROCS(0), runtime.Version())
	file := resultsFile{Seed: seed, Seconds: seconds, GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	ok := true
	untraced := map[string]result{}
	for _, w := range workloads {
		rd, err := runWorkload(w, untracedParams(seed, seconds))
		if err != nil {
			fatal(err)
		}
		res := rd.toResult(nil)
		printResult(os.Stdout, res)
		untraced[w.name] = res
		file.Results = append(file.Results, res)
		ok = ok && res.Correct
	}
	if traced {
		taxes := featureTaxes(untraced)
		for _, w := range workloads {
			ref, tr, err := tracedPair(w, seed, seconds*tracedShare)
			if err != nil {
				fatal(err)
			}
			res := tr.toResult(ref)
			for name, v := range taxes[w.name] {
				res.Layer[name] = v
			}
			printResult(os.Stdout, res)
			printLayerTables(os.Stdout, tr)
			if err := saveTrace(outDir, tr); err != nil {
				fatal(err)
			}
			file.Results = append(file.Results, res)
			ok = ok && res.Correct
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("# wrote %s\n", path)
	return ok
}

// featureTaxes are the per-layer metrics that compare two workloads'
// untraced figures: what sharding costs single_sat's reads and what
// replication costs its writes.
func featureTaxes(untraced map[string]result) map[string]map[string]value {
	single := untraced["single_sat"].E2E
	shardReads := untraced["shard_mix"].E2E["read_ops_s"].Value
	replWrites := untraced["repl_write"].E2E["write_ops_s"].Value
	return map[string]map[string]value{
		"shard_mix": {"router.read_tax_pct": {
			Value: 100 * (1 - ratio(shardReads, single["read_ops_s"].Value)), Unit: "%", N: 1}},
		"repl_write": {"replica.write_tax_x": {
			Value: ratio(single["write_ops_s"].Value, replWrites), Unit: "x", N: 1}},
	}
}

// saveTrace writes the traced run's spans — the benchmark's own and the
// ones harvested from the program's tracers — after the run has ended.
func saveTrace(outDir string, tr *runData) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "trace-"+tr.w.name+".jsonl")
	if err := writeTrace(path, tr.rows); err != nil {
		return err
	}
	fmt.Printf("# wrote %s (%d spans)\n", path, len(tr.rows))
	return nil
}
