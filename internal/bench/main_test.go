package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestMain runs the package's tests from an empty module directory and fails
// the run if any test left a BENCH_*.json file there. Persist finds the
// repository root by walking up to go.mod, so a test that persisted a result
// would write into this directory instead of the committed files; only
// raybench -persist may write them.
func TestMain(m *testing.M) {
	os.Exit(runInEmptyModule(m))
}

func runInEmptyModule(m *testing.M) int {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module benchtest\n"), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.Chdir(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := m.Run()
	written, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(written) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: tests wrote %v (%v); only raybench -persist may write BENCH_*.json\n", written, err)
		return 1
	}
	return code
}
