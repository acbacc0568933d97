package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/charexp"
	"repro/internal/colenc"
	"repro/internal/goldenfile"
)

// campaignOpts is the fixed CLI configuration behind the committed
// goldens: the default bitmap-scan search at 128 columns with every
// candidate ranked (the same invocation the CI e2e job drives through
// the job tier).
func campaignOpts(workers int) options {
	return options{
		workload: "bitmap-scan",
		top:      34,
		workers:  workers,
		cols:     128,
		format:   "text",
	}
}

func render(t *testing.T, opts options) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := run(&buf, opts); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCampaignGoldenWorkerInvariant is the acceptance test: the ranked
// campaign table is bit-identical for -workers=1 and -workers=8 and
// matches the committed golden file.
func TestCampaignGoldenWorkerInvariant(t *testing.T) {
	out1 := render(t, campaignOpts(1))
	if out1 != render(t, campaignOpts(8)) {
		t.Fatal("simra-campaign output differs between -workers=1 and -workers=8")
	}
	goldenfile.Check(t, "testdata", "campaign.golden", out1)
}

// TestCampaignCSVGolden pins the CSV rendering of the same search.
func TestCampaignCSVGolden(t *testing.T) {
	o := campaignOpts(1)
	o.format = "csv"
	out1 := render(t, o)
	o.workers = 8
	if out1 != render(t, o) {
		t.Fatal("simra-campaign csv output differs between -workers=1 and -workers=8")
	}
	goldenfile.Check(t, "testdata", "campaign.csv.golden", out1)
}

// TestCampaignColumnarGoldenWorkerInvariant pins the columnar stream for
// the same search the csv golden covers: bit-identical across worker
// counts, byte-equal to the committed golden, and decodable back to the
// exact csv and text goldens.
func TestCampaignColumnarGoldenWorkerInvariant(t *testing.T) {
	o := campaignOpts(1)
	o.format = "columnar"
	out1 := render(t, o)
	o.workers = 8
	if out1 != render(t, o) {
		t.Fatal("simra-campaign columnar stream differs between -workers=1 and -workers=8")
	}
	goldenfile.Check(t, "testdata", "campaign.colenc.golden", out1)

	tab, err := colenc.Decode([]byte(out1))
	if err != nil {
		t.Fatal(err)
	}
	for format, golden := range map[string]string{"csv": "campaign.csv.golden", "text": "campaign.golden"} {
		var b strings.Builder
		if err := charexp.Write(&b, campaign.TypedReport(tab), format); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("testdata/" + golden)
		if err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Fatalf("decoded columnar table printed as %s drifted from %s", format, golden)
		}
	}
}

// TestFlagValidation exercises the flag surface end to end.
func TestFlagValidation(t *testing.T) {
	bad := func(mut func(*options), want string) {
		t.Helper()
		o := campaignOpts(0)
		mut(&o)
		_, err := run(&bytes.Buffer{}, o)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("error %v, want substring %q", err, want)
		}
	}
	bad(func(o *options) { o.format = "json" }, "valid: text, csv, columnar")
	bad(func(o *options) { o.workload = "quantum-sort" }, "unknown workload")
	bad(func(o *options) { o.size = 9 }, "fleet size 9 out of range")
	bad(func(o *options) { o.top = -1 }, "must be >= 0")
}

// TestCampaignModes smoke-runs the non-default knobs.
func TestCampaignModes(t *testing.T) {
	o := campaignOpts(0)
	o.workload = "image-filter"
	o.size = 2
	o.top = 3
	out := render(t, o)
	if !strings.Contains(out, "workload image-filter, fleet size 2") {
		t.Fatalf("campaign header missing search shape:\n%s", out)
	}
	if !strings.Contains(out, "top 3 of") {
		t.Fatalf("campaign footer missing top truncation:\n%s", out)
	}
}
