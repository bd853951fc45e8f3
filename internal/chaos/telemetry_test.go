package chaos

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/telemetry"
	"github.com/fastmath/pumi-go/internal/trace"
)

// TestTelemetrySmoke: the balancing stack runs with the introspection
// endpoint served over real HTTP, rank 0 scrapes every
// route with net/http from inside the first balancing iteration's
// OnIter hook — while the other ranks sit blocked in their next
// collective — and every scraped document must validate against its
// schema.
func TestTelemetrySmoke(t *testing.T) {
	reg := telemetry.NewRegistry()
	pcu.SetDefaultMetrics(reg)
	defer pcu.SetDefaultMetrics(nil)
	// The live /trace view serves per-world flight-recorder rings, which
	// exist only for traced runs — mirror a tool started with both
	// -listen and -trace.
	col := new(trace.Collector)
	pcu.SetDefaultTrace(col)
	defer pcu.SetDefaultTrace(nil)

	srv, err := telemetry.Serve("127.0.0.1:0", pcu.TelemetrySources())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string) (int, []byte) {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return 0, nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return 0, nil
		}
		return resp.StatusCode, body
	}

	cfg := Config{Ranks: 4, Dir: t.TempDir()}
	cfg.fillDefaults()
	scrapes := 0
	_, err = pcu.RunOpt(cfg.Ranks, pcu.Options{
		Topo:         hwtopo.Cluster(2, cfg.Ranks/2),
		StallTimeout: 30 * time.Second,
	}, func(ctx *pcu.Ctx) error {
		dm, err := buildUnbalanced(ctx, cfg)
		if err != nil {
			return err
		}
		pri, err := parma.ParsePriority("Rgn")
		if err != nil {
			return err
		}
		_, err = parma.BalanceSafe(dm, pri, parma.Config{
			Tolerance: cfg.Tolerance,
			MaxIters:  cfg.MaxIters,
			OnIter: func(dm *partition.DMesh, dim, iter int) error {
				if dm.Ctx.Rank() != 0 || iter != 0 {
					return nil
				}
				scrapes++

				code, body := get("/metrics")
				if code != http.StatusOK {
					t.Errorf("/metrics status = %d", code)
				}
				if n, err := telemetry.ValidatePrometheus(body); err != nil {
					t.Errorf("/metrics invalid: %v", err)
				} else if n == 0 {
					t.Error("/metrics served no samples mid-run")
				}
				for _, series := range []string{"pumi_parma_imbalance", "pumi_partition_migrate_ns"} {
					if !strings.Contains(string(body), series) {
						t.Errorf("/metrics missing %s mid-run", series)
					}
				}

				code, body = get("/trace")
				if code != http.StatusOK {
					t.Errorf("/trace status = %d", code)
				}
				if kind, err := trace.ValidateFile(body); err != nil || kind != trace.FileChrome {
					t.Errorf("/trace document: kind=%v err=%v", kind, err)
				}
				// The ring tail holds the most recent events; the hook runs
				// right after the first iteration's migration. pcu's blocking
				// ops are observed here and nowhere else.
				for _, span := range []string{`"partition.migrate"`, `"exchange"`} {
					if !strings.Contains(string(body), span) {
						t.Errorf("/trace missing the live %s span", span)
					}
				}

				code, body = get("/healthz")
				if code != http.StatusOK {
					t.Errorf("/healthz status = %d", code)
				}
				var h telemetry.Health
				if err := json.Unmarshal(body, &h); err != nil {
					t.Errorf("/healthz invalid JSON: %v", err)
				} else if !h.Healthy || h.Worlds != 1 {
					t.Errorf("/healthz mid-run = %+v, want healthy with 1 world", h)
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		return partition.Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
	if scrapes != 1 {
		t.Fatalf("mid-run scrape ran %d times, want 1", scrapes)
	}

	// After the run the endpoint keeps serving: metrics persist in the
	// registry and the watchdog view reports no active worlds.
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(string(body), "pumi_parma_iter_ns") {
		t.Errorf("post-run /metrics: status=%d", code)
	}
	code, body := get("/healthz")
	var h telemetry.Health
	if err := json.Unmarshal(body, &h); err != nil || code != http.StatusOK {
		t.Fatalf("post-run /healthz: status=%d err=%v", code, err)
	}
	if !h.Healthy || h.Worlds != 0 {
		t.Errorf("post-run health = %+v, want healthy with 0 worlds", h)
	}
}
