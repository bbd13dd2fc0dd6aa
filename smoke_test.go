// Examples smoke test: every PR must keep the runnable examples runnable.
// The two headline programs (the BFV quickstart and the single-trace
// attack demo at its -quick toy scale) are built and executed, asserting
// zero exit status and non-empty, sane output. The compiled revealctl
// selftest is additionally run twice in fresh processes and its digest
// lines diffed — the cross-process half of the replay-determinism gate —
// and the batch and streaming attacks' coefficient journals are compared.
package reveal

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildAndRun compiles the package at pkg into dir and executes it with
// args, returning the combined output.
func buildAndRun(t *testing.T, dir, pkg string, args ...string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	build := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	var stdout, stderr bytes.Buffer
	run := exec.Command(bin, args...)
	run.Stdout, run.Stderr = &stdout, &stderr
	if err := run.Run(); err != nil {
		t.Fatalf("running %s %v: %v\nstdout:\n%s\nstderr:\n%s",
			pkg, args, err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke test builds and runs binaries")
	}
	dir := t.TempDir()

	out := buildAndRun(t, dir, "./examples/quickstart")
	if out == "" {
		t.Fatal("quickstart produced no output")
	}
	if !strings.Contains(out, "decrypts to") {
		t.Fatalf("quickstart output missing decryption lines:\n%s", out)
	}

	out = buildAndRun(t, dir, "./examples/single_trace_attack", "-quick")
	if out == "" {
		t.Fatal("single_trace_attack produced no output")
	}
	// The demo must actually recover the message, not merely run.
	if !strings.Contains(out, `recovered plaintext`) ||
		!strings.Contains(out, `"attack at dawn"`) {
		t.Fatalf("single_trace_attack -quick did not recover the plaintext:\n%s", out)
	}
}

// TestSelftestFreshProcesses: `revealctl selftest` twice in two fresh
// processes must print identical digest lines — the cross-process
// extension of the in-process serial/parallel replay gate.
func TestSelftestFreshProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh-process selftest builds and runs revealctl")
	}
	dir := t.TempDir()
	digest := func() string {
		out := buildAndRun(t, dir, "./cmd/revealctl", "selftest", "-seed", "3", "-workers", "3", "-q")
		line := strings.TrimSpace(out)
		if !strings.HasPrefix(line, "selftest digest: ") {
			t.Fatalf("unexpected selftest output: %q", out)
		}
		return strings.TrimPrefix(line, "selftest digest: ")
	}
	first, second := digest(), digest()
	if first != second {
		t.Fatalf("fresh-process digests diverge: %s vs %s", first, second)
	}
	if len(first) != 64 {
		t.Fatalf("malformed digest %q", first)
	}
}

// TestStreamJournalMatchesBatch: `revealctl attack -stream` journals one
// coeffs.jsonl line per e2 coefficient, and with no target bikz those
// lines are byte-equal to the batch attack's e2 lines for the same seed.
func TestStreamJournalMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("journal comparison builds and runs revealctl")
	}
	dir := t.TempDir()
	journal := func(runDir string, stream bool) []string {
		args := []string{"attack", "-seed", "1", "-messages", "1", "-run-dir", runDir}
		if stream {
			args = append(args, "-stream")
		}
		buildAndRun(t, dir, "./cmd/revealctl", args...)
		data, err := os.ReadFile(filepath.Join(runDir, "coeffs.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	}
	var batchE2 []string
	for _, line := range journal(filepath.Join(dir, "batch"), false) {
		if strings.Contains(line, `"poly":"e2"`) {
			batchE2 = append(batchE2, line)
		}
	}
	streamed := journal(filepath.Join(dir, "stream"), true)
	const n = 1024
	if len(batchE2) != n || len(streamed) != n {
		t.Fatalf("journals hold %d batch e2 lines and %d stream lines, want %d each", len(batchE2), len(streamed), n)
	}
	for i := range streamed {
		if streamed[i] != batchE2[i] {
			t.Fatalf("line %d differs:\nstream: %s\nbatch:  %s", i, streamed[i], batchE2[i])
		}
	}
}
