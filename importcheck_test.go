package visualprint

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServingImportClosure answers "what does a Locate link in": the serving
// packages must not reach the figure-only side of the repo (the scene
// renderer, the paper's experiment code, the capture-loop and network
// simulators). imaging is allowed: sift and codec need it.
func TestServingImportClosure(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./internal/server", "./internal/repl").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	figureOnly := map[string]bool{}
	for _, p := range []string{"scene", "bench", "match", "power", "session", "icp", "wardrive", "netsim"} {
		figureOnly["visualprint/internal/"+p] = true
	}
	for _, pkg := range strings.Fields(string(out)) {
		if figureOnly[pkg] {
			t.Errorf("serving path imports figure-only package %s", pkg)
		}
	}
}
