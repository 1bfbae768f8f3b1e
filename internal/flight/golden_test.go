package flight_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gcassert/internal/fleet"
	"gcassert/internal/flight"
)

// goldenBundles are bundles written by earlier builds: a schema-1 bundle
// (no instance stamp, no cost attribution) and a schema-2 bundle with
// parallel-mark worker rows, per-kind activity, cost rows and a heap
// profile.
var goldenBundles = []string{"bundle_v1.json", "bundle_v2.json"}

// canonicalHash is the fleet content hash of a bundle document: the
// identity a flight envelope is deduplicated under.
func canonicalHash(t testing.TB, raw []byte) string {
	t.Helper()
	canon, err := fleet.CanonicalPayload(raw)
	if err != nil {
		t.Fatal(err)
	}
	return fleet.ContentHash(fleet.KindFlight, "", canon)
}

// TestGoldenBundlesRoundTrip reads each fixture and re-encodes it: the
// re-encoded bundle must hash to the same canonical content as the fixture,
// so bundles written by older builds keep their fleet identity.
func TestGoldenBundlesRoundTrip(t *testing.T) {
	for _, name := range goldenBundles {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := flight.ReadBundle(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b.Cycles) == 0 || len(b.Cycles[0].Kinds) == 0 {
			t.Fatalf("%s: fixture lost its cycles or kind rows: %+v", name, b.Cycles)
		}
		again, err := json.Marshal(&b)
		if err != nil {
			t.Fatal(err)
		}
		if want, got := canonicalHash(t, raw), canonicalHash(t, again); want != got {
			t.Errorf("%s: re-encoded bundle hashes to %s, fixture to %s\nre-encoded: %s", name, got, want, again)
		}
	}
}

// FuzzReadBundle feeds arbitrary documents to ReadBundle: it must never
// panic, and a bundle it accepts must survive encode → read → encode with
// its canonical content hash unchanged.
func FuzzReadBundle(f *testing.F) {
	for _, name := range goldenBundles {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"schema_version":2,"cycles":[{"gc":1,"phases":[{"phase":"mark","dur_ns":5}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := flight.ReadBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		first, err := json.Marshal(&b)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := flight.ReadBundle(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-reading an accepted bundle: %v\n%s", err, first)
		}
		second, err := json.Marshal(&b2)
		if err != nil {
			t.Fatal(err)
		}
		if h1, h2 := canonicalHash(t, first), canonicalHash(t, second); h1 != h2 {
			t.Fatalf("round trip changed the content hash:\n%s\n%s", first, second)
		}
	})
}
