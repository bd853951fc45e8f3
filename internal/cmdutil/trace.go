package cmdutil

import (
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/trace"
)

// TraceUsage is the shared -trace flag description.
const TraceUsage = "record every parallel run with the flight recorder and write a Chrome trace-event timeline to FILE (open at https://ui.perfetto.dev); a metrics summary lands next to it as FILE's name with .summary.json"

// TraceSummaryPath derives the metrics-summary file name from the
// Chrome timeline path: out.json -> out.summary.json.
func TraceSummaryPath(path string) string {
	return strings.TrimSuffix(path, ".json") + ".summary.json"
}

// StartTrace wires a tool's -trace flag: with a non-empty path it
// installs a process-wide trace collector so every subsequent pcu run
// records into the flight recorder, and returns a closer that writes
// the merged Chrome timeline to path and the metrics summary to
// TraceSummaryPath(path). With an empty path both the install and the
// closer are no-ops. Use as:
//
//	defer cmdutil.StartTrace(*tracePath)()
func StartTrace(path string) func() {
	if path == "" {
		return func() {}
	}
	col := new(trace.Collector)
	pcu.SetDefaultTrace(col)
	return func() {
		pcu.SetDefaultTrace(nil)
		runs := col.Traces()
		if len(runs) == 0 {
			fmt.Fprintf(os.Stderr, "%s: -trace: no parallel runs recorded\n", tool)
			return
		}
		spath := TraceSummaryPath(path)
		writeTraceFile(path, "trace", func(w io.Writer) error { return trace.WriteChrome(w, runs...) })
		writeTraceFile(spath, "trace summary", func(w io.Writer) error { return trace.WriteSummary(w, runs...) })
		fmt.Fprintf(os.Stderr, "%s: trace: %d run(s) -> %s (timeline), %s (summary)\n",
			tool, len(runs), path, spath)
	}
}

// writeTraceFile creates path and fills it with write, failing the tool
// on any error.
func writeTraceFile(path, what string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		Fail(err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		Fail(fmt.Errorf("writing %s: %w", what, err))
	}
}
