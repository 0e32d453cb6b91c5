package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/quick/*.golden from the current code")

// TestCampaignGoldens runs every registered campaign at -quick settings and
// diffs its fingerprint against testdata/quick/<name>.golden: gmpsim's
// stdout for the deterministic campaigns, the run-stable fingerprint for
// scale, serve and stream. The goldens were captured before the registry
// existed, from the per-experiment code it replaced.
func TestCampaignGoldens(t *testing.T) {
	for _, name := range CampaignNames() {
		cp, _ := LookupCampaign(name)
		t.Run(name, func(t *testing.T) {
			rep, err := cp.Run(Common{Quick: true, Pair: "GMP,LGS", K: 12})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) > 0 {
				t.Fatalf("%d oracle violations:\n%s", len(rep.Violations), strings.Join(rep.Violations, "\n"))
			}
			path := filepath.Join("testdata", "quick", cp.Name+".golden")
			if *updateGoldens {
				if err := os.WriteFile(path, []byte(rep.Fingerprint), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Fingerprint != string(want) {
				t.Fatalf("%s changed from the golden:\ngot:\n%s\nwant:\n%s", cp.Name, rep.Fingerprint, want)
			}
		})
	}
}

// TestEveryGoldenHasACampaign keeps the goldens and the registry in step: a
// campaign dropped from the registry must take its golden with it.
func TestEveryGoldenHasACampaign(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "quick", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".golden")
		if _, ok := LookupCampaign(name); !ok {
			t.Errorf("%s has no registered campaign", p)
		}
	}
	if len(paths) != len(CampaignNames()) {
		t.Errorf("%d goldens for %d campaigns", len(paths), len(CampaignNames()))
	}
}
