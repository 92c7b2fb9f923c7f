package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the command itself: with
// WHITEFI_BENCH_MAIN set, the process runs main with the arguments
// after "--".
func TestMain(m *testing.M) {
	if os.Getenv("WHITEFI_BENCH_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append(os.Args[:1], os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs the command with args and returns its exit code and
// standard error.
func runBench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "WHITEFI_BENCH_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestRepsBelowOneRejected pins the usage error for -reps below 1:
// exit status 2 and a message naming the flag, as for an unknown -exp
// id (also "none", which no longer exists), instead of empty tables
// (0) or a panic (negative).
func TestRepsBelowOneRejected(t *testing.T) {
	for _, reps := range []string{"0", "-2"} {
		code, stderr := runBench(t, "-exp", "fig2", "-reps", reps)
		if code != 2 || !strings.Contains(stderr, "-reps") {
			t.Errorf("-reps %s: exit %d, stderr %q; want exit 2 naming -reps", reps, code, stderr)
		}
	}
	for _, id := range []string{"nosuch", "none"} {
		if code, stderr := runBench(t, "-exp", id); code != 2 {
			t.Errorf("unknown -exp %s: exit %d, stderr %q; want 2", id, code, stderr)
		}
	}
}
