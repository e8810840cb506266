package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// The self-test runs the harness at its small size from this module's
// directory: go test ./... in perfbench/.

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSmall runs one workload at the self-test size and parses its last
// output line.
func runSmall(t *testing.T, args ...string) resultLine {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append([]string{"--root", "..", "--size", "small", "--seconds", "1", "--seed", "3"}, args...)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return res
}

// benchmarkJSON reads the metric lists of the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (map[string]string, map[string]string, []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return e2e, layer, names
}

// sameNames fails unless the printed metrics and the declared ones match
// both ways, units included.
func sameNames(t *testing.T, what string, printed resultLine, declared map[string]string) {
	t.Helper()
	for name, unit := range declared {
		m, ok := printed.Metrics[name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json metric %s not printed", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s printed in %s, declared in %s", what, name, m.Unit, unit)
		}
	}
	for name := range printed.Metrics {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: printed metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	e2e, layer, workloadList := benchmarkJSON(t)
	var declared []string
	for name := range workloads {
		declared = append(declared, name)
	}
	sort.Strings(declared)
	sort.Strings(workloadList)
	if strings.Join(declared, ",") != strings.Join(workloadList, ",") {
		t.Fatalf("workloads: harness has %v, BENCHMARK.json %v", declared, workloadList)
	}
	for _, w := range workloadList {
		res := runSmall(t, "--workload", w, "--trace", "0")
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: clean run reported correct=%v failed=%d", w, res.Correct, res.Failed)
		}
		sameNames(t, w+" --trace 0", res, e2e)
		for name, m := range res.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s reads 0", w, name)
			}
		}
		sameNames(t, w+" --trace 1", runSmall(t, "--workload", w, "--trace", "1"), layer)
	}
}

// TestChecksCatchCorruptReferences damages each output check's reference
// in turn: the run must then report the mismatch as a failure.
func TestChecksCatchCorruptReferences(t *testing.T) {
	for check, w := range map[string]string{
		"suite": "suite-cold", "sweep": "paper-sweep", "fleet": "fleet-sweep",
		"job": "service-mixed", "query": "service-mixed",
	} {
		res := runSmall(t, "--workload", w, "--trace", "0", "--corrupt", check)
		if res.Correct || res.Failed == 0 {
			t.Errorf("corrupt %s reference on %s: correct=%v failed=%d, want a failure", check, w, res.Correct, res.Failed)
		}
	}
}
