package exp

import (
	"encoding/json"
	"testing"

	"whitefi/internal/checkpoint"
)

// TestSpecRejections pins that a spec field the kind would ignore or
// silently change is an error, not a different run.
func TestSpecRejections(t *testing.T) {
	RegisterSessions()
	for _, c := range []struct {
		name, kind string
		spec       interface{}
	}{
		{"densecity tiles", "densecity", CitySpec{APs: 4, Tiles: 2}},
		{"densecity shards", "densecity", CitySpec{APs: 4, Shards: 2}},
		{"densecity workers", "densecity", CitySpec{APs: 4, Workers: 2}},
		{"densecity mobility", "densecity", CitySpec{APs: 4, Mobility: true}},
		{"densecity negative queue_limit", "densecity", CitySpec{APs: 4, QueueLimit: -1}},
		{"tiledcity negative tiles", "tiledcity", CitySpec{APs: 4, Tiles: -1}},
		{"tiledcity negative shards", "tiledcity", CitySpec{APs: 4, Tiles: 2, Shards: -1}},
		{"tiledcity negative workers", "tiledcity", CitySpec{APs: 4, Tiles: 2, Workers: -1}},
		{"tiledcity negative queue_limit", "tiledcity", CitySpec{APs: 4, Tiles: 2, QueueLimit: -1}},
		{"tiledcity tiles above aps", "tiledcity", CitySpec{APs: 4, Tiles: 5}},
		{"mixedtraffic negative queue_limit", "mixedtraffic", MixedSpec{QueueLimit: -1}},
	} {
		raw, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkpoint.Build(c.kind, raw, checkpoint.Options{}); err == nil {
			t.Errorf("%s: spec %s accepted", c.name, raw)
		}
	}
}
