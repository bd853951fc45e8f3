package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/cmdutil"
)

// TestPartsFlagRejected runs the tool (this test binary re-executed, with
// the tool's arguments after "--") and expects a part count below one to
// be a usage error before the mesh is even opened: the multilevel
// partitioners panic on it, as RCB does.
func TestPartsFlagRejected(t *testing.T) {
	if i := slices.Index(os.Args, "--"); i >= 0 { // the child
		os.Args = append(os.Args[:1], os.Args[i+1:]...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		return
	}
	for _, parts := range []string{"0", "-3"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPartsFlagRejected$", "--",
			"-mesh", "absent.pumi", "-method", "graph", "-parts", parts)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != cmdutil.ExitUsage {
			t.Fatalf("-parts %s: ran to %v, want exit %d; stderr: %s", parts, err, cmdutil.ExitUsage, &stderr)
		}
		if want := "pumi-part: -parts must be at least 1, got " + parts; !strings.Contains(stderr.String(), want) {
			t.Errorf("-parts %s: stderr %q lacks %q", parts, &stderr, want)
		}
	}
}
