package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// TestQuickRunMatchesManifest runs skyperf -quick (1/20 size, both the
// end-to-end and the traced run) and asserts that the workload and metric
// names it emits are exactly those BENCHMARK.json declares, that each is
// well formed, and that every correctness check passed: names cannot drift
// apart, and the benchmark's own code runs under `go test`.
func TestQuickRunMatchesManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark at 1/20 size")
	}
	m, err := readManifest(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "skyperf")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var declaredWorkloads, declaredE2E, declaredLayers []string
	for _, w := range m.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
	}
	for _, e := range m.EndToEnd {
		declaredE2E = append(declaredE2E, e.Name)
	}
	for _, l := range m.PerLayer {
		declaredLayers = append(declaredLayers, l.Name)
	}
	for _, name := range append(append(append([]string(nil), declaredWorkloads...), declaredE2E...), declaredLayers...) {
		if !wellFormed.MatchString(name) {
			t.Errorf("declared name %q is not well formed", name)
		}
	}

	for _, traced := range []string{"0", "1"} {
		result := filepath.Join(dir, "result-"+traced+".json")
		cmd := exec.Command(bin, "-quick", "-trace", traced, "-out", result, "-workdir", filepath.Join(dir, "work"))
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("skyperf -quick -trace %s: %v\n%s", traced, err, out)
		}
		data, err := os.ReadFile(result)
		if err != nil {
			t.Fatal(err)
		}
		var file RunFile
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		var ran []string
		for _, r := range file.Results {
			ran = append(ran, r.Workload)
			if !r.Correct {
				t.Errorf("%s (trace %s): correctness checks failed: %+v", r.Workload, traced, r.Checks)
			}
			emitted, declared := r.EndToEnd, declaredE2E
			if traced == "1" {
				emitted, declared = r.PerLayer, declaredLayers
			}
			var names []string
			for _, metric := range emitted {
				names = append(names, metric.Name)
			}
			if !sameSet(names, declared) {
				t.Errorf("%s (trace %s): emitted metrics\n %v\nBENCHMARK.json declares\n %v", r.Workload, traced, names, declared)
			}
		}
		if !sameSet(ran, declaredWorkloads) {
			t.Errorf("ran workloads %v, BENCHMARK.json declares %v", ran, declaredWorkloads)
		}
	}
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
