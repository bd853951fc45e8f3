package trace

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzChromeTrace feeds arbitrary bytes to the readers of Chrome trace
// JSON that comes from outside the process — what pumi-trace runs on a
// file it is handed: MaybeGunzip, ValidateFile and CriticalPathChrome.
// None may panic, and a report CriticalPathChrome returns must render.
// The seeds are the critical-path fixture, gzipped and cut in half, a
// bare summary tag and a span on a far-out track; crashers land under
// testdata/fuzz/FuzzChromeTrace.
func FuzzChromeTrace(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "critical_fixture.json"))
	if err != nil {
		f.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(fixture)
	zw.Close()
	f.Add(fixture)
	f.Add(gz.Bytes())
	f.Add(fixture[:len(fixture)/2])
	f.Add([]byte(`{"schema":"` + SummarySchema + `","ranks":1}`))
	f.Add(farTrack)
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, err := MaybeGunzip(data)
		if err != nil {
			return
		}
		ValidateFile(plain)
		rep, err := CriticalPathChrome(data)
		if err != nil {
			return
		}
		rep.Format(io.Discard)
	})
}

// farTrack is one span on track 2e9: a forged rank id that would size
// the blame table at billions of ranks.
var farTrack = []byte(`{"traceEvents":[` +
	`{"name":"x","ph":"B","ts":0,"pid":0,"tid":2000000000},` +
	`{"name":"x","ph":"E","ts":1,"pid":0,"tid":2000000000}],` +
	`"otherData":{"schema":"` + ChromeSchema + `"}}`)

func TestCriticalPathRejectsForgedTrack(t *testing.T) {
	if _, err := ValidateFile(farTrack); err != nil {
		t.Fatalf("the forged timeline is well-formed, ValidateFile says %v", err)
	}
	if _, err := CriticalPathChrome(farTrack); err == nil {
		t.Fatal("CriticalPathChrome accepted a track id past the track count")
	}
}
