package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runRecord is one child run in a results file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// harness runs every workload repeat times, each run in its own child
// process so peak memory and runtime state never carry over. Round r
// uses seed+r and visits the workloads in reverse order on odd rounds,
// so no workload always runs right after the same neighbour.
func harness(seed int64, seconds float64, trace int, repeat int, out string, stdout, stderr io.Writer) int {
	if repeat < 1 || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "bench: -repeat must be >= 1, -seconds positive, -trace 0 or 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rf := resultsFile{Seconds: seconds}
	status := 0
	for r := 0; r < repeat; r++ {
		order := append([]*workload(nil), workloads...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			s := seed + int64(r)
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			var buf bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			res, perr := lastResult(buf.Bytes())
			if runErr != nil || perr != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d failed: %v %v\n", w.name, s, runErr, perr)
				status = 1
			}
			if perr == nil {
				rf.Runs = append(rf.Runs, runRecord{Workload: w.name, Seed: s, Trace: trace, Result: res})
			}
		}
	}
	summarize(stdout, rf)
	if out != "" {
		data, err := json.MarshalIndent(rf, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o666)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// lastResult parses the result line a workload run ends with.
func lastResult(stdout []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line: %v", err)
	}
	return &res, nil
}

// series gathers each (workload, metric) pair's values across runs, in
// run order.
func series(rf resultsFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range rf.Runs {
		if out[run.Workload] == nil {
			out[run.Workload] = map[string][]float64{}
		}
		for name, m := range run.Result.Metrics {
			out[run.Workload][name] = append(out[run.Workload][name], m.Value)
		}
	}
	return out
}

// summarize prints every workload × metric median, quartiles and
// spread (the interquartile distance as a share of the median).
func summarize(w io.Writer, rf resultsFile) {
	ser := series(rf)
	for _, wl := range workloads {
		ms := ser[wl.name]
		if ms == nil {
			continue
		}
		fmt.Fprintf(w, "== %s (%d runs)\n", wl.name, len(ms[firstKey(ms)]))
		for _, name := range sortedKeys(ms) {
			xs := ms[name]
			q1, q3 := quartiles(xs)
			med := median(xs)
			fmt.Fprintf(w, "  %-28s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f\n",
				name, med, q1, q3, spread(q1, q3, med))
		}
	}
}

func spread(q1, q3, med float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func firstKey(m map[string][]float64) string {
	keys := sortedKeys(m)
	if len(keys) == 0 {
		return ""
	}
	return keys[0]
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// checkSpec checks that the BENCHMARK.json at path lists exactly this
// benchmark's workloads and metrics, with the same units and directions.
func checkSpec(path string) error {
	var spec benchSpec
	if err := readJSON(path, &spec); err != nil {
		return err
	}
	var listed, ours [3][]string
	for _, w := range spec.Workloads {
		listed[0] = append(listed[0], w.Name+": "+w.Why)
	}
	for _, m := range spec.EndToEnd {
		listed[1] = append(listed[1], m.Name+" ["+m.Unit+", "+m.Better+"]")
	}
	for _, m := range spec.PerLayer {
		listed[2] = append(listed[2], m.Name+" ["+m.Unit+", "+m.Better+"]")
	}
	for _, w := range workloads {
		ours[0] = append(ours[0], w.name+": "+w.why)
	}
	for i, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			ours[i+1] = append(ours[i+1], d.name+" ["+d.unit+", "+d.better+"]")
		}
	}
	for i, what := range []string{"workloads", "end_to_end", "per_layer"} {
		sort.Strings(listed[i])
		sort.Strings(ours[i])
		if a, b := strings.Join(listed[i], "\n  "), strings.Join(ours[i], "\n  "); a != b {
			return fmt.Errorf("%s: %s lists\n  %s\nbut the benchmark has\n  %s", path, what, a, b)
		}
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload × metric, both sides' medians and
// quartiles and a verdict against the BENCHMARK.json bound. A metric
// whose parent spread exceeds its bound is "unresolved" unless every
// change run beats every parent run. Per-layer metrics have no bound
// and get the median ratio only. It exits 1 on any regression.
func compareFiles(benchPath, parentPath, changePath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var parent, change resultsFile
	for _, f := range []struct {
		path string
		v    any
	}{{benchPath, &spec}, {parentPath, &parent}, {changePath, &change}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	ps, cs := series(parent), series(change)
	status := 0
	for _, wl := range workloads {
		if ps[wl.name] == nil || cs[wl.name] == nil {
			continue
		}
		fmt.Fprintf(stdout, "== %s\n", wl.name)
		for _, m := range spec.EndToEnd {
			p, c := ps[wl.name][m.Name], cs[wl.name][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := verdict(p, c, m.Better == "higher", m.Bound)
			if v == "REGRESSION" {
				status = 1
			}
			printRow(stdout, m.Name, m.Unit, p, c, v)
		}
		for _, m := range spec.PerLayer {
			p, c := ps[wl.name][m.Name], cs[wl.name][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			printRow(stdout, m.Name, m.Unit, p, c, fmt.Sprintf("ratio %.3f", median(c)/median(p)))
		}
	}
	return status
}

func printRow(w io.Writer, name, unit string, p, c []float64, verdict string) {
	p1, p3 := quartiles(p)
	c1, c3 := quartiles(c)
	fmt.Fprintf(w, "  %-28s %-9s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  %s\n",
		name, unit, median(p), p1, p3, median(c), c1, c3, verdict)
}

// verdict judges one end-to-end metric by the choosing-metrics rules:
// a change worse than the bound is a regression; a parent spread wider
// than the bound leaves the metric unresolved unless every change run
// reads better than every parent run; a gain needs nine tenths of the
// run pairs and a median shift beyond the parent's interquartile range.
func verdict(p, c []float64, higher bool, bound float64) string {
	better := func(a, b float64) bool { // a reads better than b
		if higher {
			return a > b
		}
		return a < b
	}
	mp, mc := median(p), median(c)
	worse := (mc - mp) / mp
	if higher {
		worse = (mp - mc) / mp
	}
	q1, q3 := quartiles(p)
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case spread(q1, q3, mp) > bound && !allBetter:
		return "unresolved (parent spread exceeds the bound)"
	case worse > bound:
		return "REGRESSION"
	}
	wins, pairs := 0, 0
	for i := 0; i < len(p) && i < len(c); i++ {
		pairs++
		if better(c[i], p[i]) {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(mc-mp) > math.Abs(q3-q1) {
		return fmt.Sprintf("improved (%d/%d pairs)", wins, pairs)
	}
	return "within bound"
}
