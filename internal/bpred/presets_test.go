package bpred

import "testing"

func TestPresetsBuildAndMatchKind(t *testing.T) {
	for _, name := range PresetNames() {
		c, ok := Preset(name)
		if !ok {
			t.Fatalf("PresetNames listed unknown kind %q", name)
		}
		if c.Kind != name {
			t.Errorf("preset %q has Kind %q", name, c.Kind)
		}
		if _, err := c.Build(); err != nil {
			t.Errorf("preset %q does not build: %v", name, err)
		}
	}
	if _, ok := Preset("oracle-3000"); ok {
		t.Error("unknown kind reported as a preset")
	}
}

func TestPresetTournamentMatchesBaseline(t *testing.T) {
	// uarch.Baseline() hardcodes this exact predictor; the preset must stay
	// in step with it so "-pred tournament" is byte-identical to a default run.
	want := Config{Kind: "tournament", Entries: 16384, HistBits: 12, BTBEntries: 4096}
	if got, _ := Preset("tournament"); got != want {
		t.Errorf("tournament preset = %+v, want %+v", got, want)
	}
}

func TestStorageBits(t *testing.T) {
	cases := []struct {
		c    Config
		want int64
	}{
		{Config{Kind: "bimodal", Entries: 16384}, 32768},
		{Config{Kind: "gshare", Entries: 16384, HistBits: 12}, 32780},
		{Config{Kind: "tournament", Entries: 16384, HistBits: 12}, 98316},
		{Config{Kind: "local", Entries: 16384, HistBits: 10}, 16384*10 + 2048},
		{Config{Kind: "perceptron", Entries: 1024, HistBits: 24}, 1024*25*8 + 24},
		// 2×E base counters + per-table (3+2+tag) with tags 8,9,10,11.
		{Config{Kind: "tage", Entries: 1024, HistBits: 64}, 4*1024 + 1024*(13+14+15+16) + 64},
		{Config{Kind: "2bc-gskew", Entries: 8192, HistBits: 13}, 8*8192 + 13},
		{Config{Kind: "perfect"}, 0},
		{Config{Kind: "taken", BTBEntries: 4096}, 0},
	}
	for _, tc := range cases {
		if got := tc.c.StorageBits(); got != tc.want {
			t.Errorf("StorageBits(%+v) = %d, want %d", tc.c, got, tc.want)
		}
	}
}

func TestConfigForBudget(t *testing.T) {
	// The B1 shootout budget: the baseline tournament's storage.
	budget := Config{Kind: "tournament", Entries: 16384, HistBits: 12}.StorageBits()
	for _, kind := range PresetNames() {
		c, ok := ConfigForBudget(kind, budget)
		if !ok {
			t.Errorf("ConfigForBudget(%q) failed at budget %d", kind, budget)
			continue
		}
		if got := c.StorageBits(); got > budget {
			t.Errorf("%q sizing %d bits exceeds budget %d", kind, got, budget)
		}
		if c.Entries > 0 {
			grown := c
			grown.Entries *= 2
			if grown.StorageBits() <= budget {
				t.Errorf("%q not maximal: %d entries also fits", kind, grown.Entries)
			}
		}
		if _, err := c.Build(); err != nil {
			t.Errorf("budget sizing for %q does not build: %v", kind, err)
		}
	}
	// Exact-fit boundary: tournament at 16384 entries is exactly the budget.
	c, _ := ConfigForBudget("tournament", budget)
	if c.Entries != 16384 {
		t.Errorf("tournament at its own budget sized to %d entries", c.Entries)
	}
	if _, ok := ConfigForBudget("nonsense", budget); ok {
		t.Error("unknown kind accepted")
	}
	if _, ok := ConfigForBudget("bimodal", 1); ok {
		t.Error("impossible budget accepted")
	}
	if c, ok := ConfigForBudget("perfect", 0); !ok || c.Kind != "perfect" {
		t.Error("stateless kind should fit any budget")
	}
}

func TestBuildNewKinds(t *testing.T) {
	for _, kind := range []string{"tage", "2bc-gskew"} {
		c, _ := Preset(kind)
		u, err := c.Build()
		if err != nil {
			t.Fatalf("Build(%q): %v", kind, err)
		}
		if u.BTB == nil {
			t.Errorf("%q preset should carry a BTB", kind)
		}
		// Smoke the built unit through the Predictor interface.
		for i := 0; i < 100; i++ {
			u.Dir.Access(uint64(0x1000+i*4), i%3 != 0)
		}
	}
	if _, err := (Config{Kind: "oracle-3000"}).Build(); err == nil {
		t.Error("unknown kind built without error")
	}
}
