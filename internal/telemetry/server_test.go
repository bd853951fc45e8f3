package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Histogram("op.ns").Observe(0, 1500)
	r.Gauge("live").SetInt(0, 4)

	healthy := true
	srv, err := Serve("127.0.0.1:0", Sources{
		Metrics: r,
		TraceJSON: func(w io.Writer) error {
			_, err := io.WriteString(w, `{"traceEvents":[],"otherData":{"schema":"pumi-trace/chrome/1"}}`)
			return err
		},
		Health: func() Health {
			return Health{Healthy: healthy, Worlds: 1, Lines: []string{"world 1: 4 ranks live"}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if _, err := ValidatePrometheus(body); err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "pumi_op_ns_count 1") {
		t.Fatalf("/metrics missing histogram:\n%s", body)
	}

	code, body = get(t, base+"/trace")
	if code != 200 {
		t.Fatalf("/trace status %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("/trace missing traceEvents")
	}

	code, body = get(t, base+"/healthz")
	if code != 200 {
		t.Fatalf("/healthz status %d", code)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil || !h.Healthy {
		t.Fatalf("/healthz content wrong: %v %s", err, body)
	}

	healthy = false
	code, _ = get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy /healthz status %d, want 503", code)
	}
}

func TestServeEmptySources(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Sources{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	for _, path := range []string{"/metrics", "/trace", "/healthz"} {
		code, _ := get(t, base+path)
		if code != 200 {
			t.Fatalf("%s status %d with empty sources", path, code)
		}
	}
	var nilSrv *Server
	if nilSrv.Addr() != "" {
		t.Fatal("nil server Addr")
	}
	if err := nilSrv.Close(); err != nil {
		t.Fatal("nil server Close")
	}
}
