package cmdutil

import (
	"fmt"
	"os"

	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/telemetry"
)

// ListenUsage is the shared -listen flag description.
const ListenUsage = "serve live introspection over HTTP on ADDR (e.g. 127.0.0.1:9970): /metrics (Prometheus text), /trace (Chrome trace JSON of the live rings), /healthz (barrier health); every run records into the registry /metrics serves; for per-op arrival skew, feed /trace to pumi-trace -critical"

// StartListen wires a tool's -listen flag: with a non-empty address it
// installs a process-wide metrics registry — so every subsequent pcu
// run's spans, counts and typed series land where /metrics serves them —
// and serves the process's introspection sources over HTTP until the
// returned closer runs. With an empty address both are no-ops. Use as:
//
//	defer cmdutil.StartListen(*listenAddr)()
func StartListen(addr string) func() {
	if addr == "" {
		return func() {}
	}
	pcu.SetDefaultMetrics(telemetry.NewRegistry())
	srv, err := telemetry.Serve(addr, pcu.TelemetrySources())
	if err != nil {
		Fail(fmt.Errorf("-listen: %w", err))
	}
	fmt.Fprintf(os.Stderr, "%s: telemetry: http://%s (/metrics /trace /healthz)\n", tool, srv.Addr())
	return func() {
		srv.Close()
		pcu.SetDefaultMetrics(nil)
	}
}
