package globaldb

import (
	"os/exec"
	"strings"
	"testing"
)

// layerOf places a package on the read path's layer order (README,
// "Architecture: the read path"), lowest first; -1 for the helper packages
// beside it.
func layerOf(pkg string) int {
	switch {
	case strings.HasPrefix(pkg, "globaldb/internal/storage/"):
		return 0
	case pkg == "globaldb/internal/datanode":
		return 1
	case pkg == "globaldb/internal/coordinator":
		return 2
	case pkg == "globaldb/internal/cluster":
		return 3
	case pkg == "globaldb":
		return 4
	case pkg == "globaldb/gsql":
		return 5
	case pkg == "globaldb/server", pkg == "globaldb/server/wire", pkg == "globaldb/driver":
		return 6
	case strings.HasPrefix(pkg, "globaldb/cmd/"), strings.HasPrefix(pkg, "globaldb/examples/"):
		return 7
	}
	return -1
}

// TestDependencyDirection fails on an import that points up the layer order:
// storage <- datanode <- coordinator <- cluster <- globaldb <- gsql <-
// server, driver <- cmd, examples. gsql/fragment, which data nodes import,
// stays a leaf over internal/keys and internal/table; and no internal package
// reaches back to the public API except the workload drivers and the
// experiment reproducer built on it. Imports of non-test files only.
func TestDependencyDirection(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	seen := make(map[int]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		pkg, layer := fields[0], layerOf(fields[0])
		seen[layer] = true
		usesPublicAPI := strings.HasPrefix(pkg, "globaldb/internal/workload/") || pkg == "globaldb/internal/experiments"
		for _, imp := range fields[1:] {
			if imp != "globaldb" && !strings.HasPrefix(imp, "globaldb/") {
				continue
			}
			switch {
			case layer >= 0 && layerOf(imp) > layer:
				t.Errorf("%s imports %s, a layer above it", pkg, imp)
			case pkg == "globaldb/gsql/fragment" && imp != "globaldb/internal/keys" && imp != "globaldb/internal/table":
				t.Errorf("gsql/fragment imports %s; it may import only internal/keys and internal/table", imp)
			case strings.HasPrefix(pkg, "globaldb/internal/") && !usesPublicAPI && layerOf(imp) >= layerOf("globaldb"):
				t.Errorf("%s imports %s; internal packages do not import the public API or what is built on it", pkg, imp)
			}
		}
	}
	for layer := 0; layer <= 7; layer++ {
		if !seen[layer] {
			t.Errorf("go list found no package on layer %d; layerOf is out of date", layer)
		}
	}
}
