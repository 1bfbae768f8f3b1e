package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gcassert/internal/flight"
	"gcassert/internal/heapdump"
	"gcassert/internal/trace"
)

// goldenEnvelopes are envelopes shipped by an earlier gcassertd to a gcfleet
// collector, one per artifact kind, with the content hash each was stored
// under. A payload decoded into today's Go type and sealed again must land
// on the same hash, or identical content from old and new builds would stop
// deduplicating in a collector store.
var goldenEnvelopes = []struct {
	kind string
	hash string
	into func() any
}{
	{KindCensus, "sha256-e8b3e5d037ec9eda9fed2611ffe06aff2fe99e8b37274de8678720842edaea9a", func() any { return new(heapdump.Snapshot) }},
	{KindFlight, "sha256-bf299d96e5a841ca18f7bfbd04ed978a3ea3134bae217e94b8dd2eb072f2b816", func() any { return new(flight.Bundle) }},
	{KindSLO, "sha256-13807694bcfe81e7688bba4c6c0b448ce26104865970e2b89970b8a6f3888131", func() any { return new(SLOReport) }},
	{KindTrace, "sha256-da69d05c2a383f0462b3efd3bd8b82ad19132580b1d1312f091bfcbb1288c791", func() any { return new(trace.Document) }},
}

func TestGoldenEnvelopeHashes(t *testing.T) {
	for _, g := range goldenEnvelopes {
		raw, err := os.ReadFile(filepath.Join("testdata", "envelope_"+g.kind+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var env Envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: %v", g.kind, err)
		}
		if env.Kind != g.kind || env.Hash != g.hash {
			t.Fatalf("%s fixture is %s %s, want hash %s", g.kind, env.Kind, env.Hash, g.hash)
		}
		if err := env.Verify(); err != nil {
			t.Fatalf("%s: %v", g.kind, err)
		}
		doc := g.into()
		if err := json.Unmarshal(env.Payload, doc); err != nil {
			t.Fatalf("%s payload: %v", g.kind, err)
		}
		payload, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		resealed, err := Seal(env.Kind, env.RegistryRef, env.Instance, env.CapturedUnixNs, payload)
		if err != nil {
			t.Fatal(err)
		}
		if resealed.Hash != g.hash {
			t.Errorf("%s: re-encoded payload hashes to %s, want %s\npayload: %s", g.kind, resealed.Hash, g.hash, payload)
		}
	}
}
