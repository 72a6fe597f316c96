package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMainProcess is the rafdac process the tests below start: re-run
// as the test binary with "-test.run=^TestMainProcess$ -- <args>", it
// executes main with <args>.  In a plain test run it has no arguments
// and does nothing.
func TestMainProcess(t *testing.T) {
	if flag.NArg() == 0 {
		return
	}
	os.Args = append([]string{"rafdac"}, flag.Args()...)
	main()
	os.Exit(0)
}

// TestTransformCollisionExitsCleanly: a program whose generated names
// collide with a declared class makes `rafdac transform` print one error
// line and exit 1, in either class order, with no goroutine dump.
func TestTransformCollisionExitsCleanly(t *testing.T) {
	const a, oint = "class A { int x; }\n", "class A_O_Int { native void f(); }\n"
	const main = "class Main { static void main() {} }\n"
	dir := t.TempDir()
	for i, src := range []string{a + oint + main, oint + a + main} {
		in := filepath.Join(dir, fmt.Sprintf("collide%d.mj", i))
		if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestMainProcess$", "--",
			"transform", "-o", filepath.Join(dir, "out.rar"), in)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("rafdac transform: %v, want exit status 1; stderr:\n%s", err, stderr.String())
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine ") ||
			!strings.HasPrefix(msg, `rafdac: transform: duplicate class "A_O_Int"`) {
			t.Errorf("stderr:\n%s\nwant one duplicate-class error line and no goroutine dump", msg)
		}
	}
}
