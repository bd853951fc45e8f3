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
// file it is handed: MaybeGunzip, ValidateFile, CriticalPathChrome and
// ChromePhases. None may panic, a report CriticalPathChrome returns
// must render, and every phase ChromePhases accepts has a name and
// 0 <= MaxRankSec <= TotalSec.
// The seeds are the critical-path fixture, gzipped and cut in half, a
// bare summary tag, a span on a far-out track and one ending far in the
// future; crashers land under testdata/fuzz/FuzzChromeTrace.
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
	f.Add(farTime)
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, err := MaybeGunzip(data)
		if err != nil {
			return
		}
		ValidateFile(plain)
		phases, err := ChromePhases(data)
		if err == nil {
			for _, p := range phases {
				if p.Name == "" || p.MaxRankSec < 0 || p.MaxRankSec > p.TotalSec {
					t.Fatalf("ChromePhases returned an impossible phase %+v", p)
				}
			}
		}
		rep, err := CriticalPathChrome(data)
		if err != nil {
			return
		}
		rep.Format(io.Discard)
	})
}

// farTrack is one span on track 2e9: a forged rank id that would size
// the blame table at billions of ranks.
var farTrack = forged(`{"name":"x","ph":"B","ts":0,"pid":0,"tid":2000000000},` +
	`{"name":"x","ph":"E","ts":1,"pid":0,"tid":2000000000}`)

// farTime is one span ending at 1e300 µs, past the int64 nanosecond
// range a timeline is read back into.
var farTime = forged(`{"name":"x","ph":"B","ts":1,"pid":0,"tid":0},` +
	`{"name":"x","ph":"E","ts":1e300,"pid":0,"tid":0}`)

func forged(events string) []byte {
	return []byte(`{"traceEvents":[` + events + `],"otherData":{"schema":"` + ChromeSchema + `"}}`)
}

// TestCriticalPathRejectsForgedTrack: both readers of a timeline refuse
// a file that passes schema validation but cannot be read back into
// per-rank spans.
func TestCriticalPathRejectsForgedTrack(t *testing.T) {
	for name, data := range map[string][]byte{"far track": farTrack, "far time": farTime} {
		if _, err := ValidateFile(data); err != nil {
			t.Fatalf("%s: the forged timeline is well-formed, ValidateFile says %v", name, err)
		}
		if _, err := CriticalPathChrome(data); err == nil {
			t.Errorf("%s: CriticalPathChrome accepted it", name)
		}
		if _, err := ChromePhases(data); err == nil {
			t.Errorf("%s: ChromePhases accepted it", name)
		}
	}
}
