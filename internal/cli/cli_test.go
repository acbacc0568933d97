package cli

import (
	"flag"
	"strings"
	"testing"
)

// TestBind binds every supported kind, keeps pre-filled values as
// defaults, parses into the fields and skips untagged fields.
func TestBind(t *testing.T) {
	var opts struct {
		S    string  `flag:"s" usage:"a string"`
		B    bool    `flag:"b" usage:"a bool"`
		I    int     `flag:"i" usage:"an int"`
		U    uint64  `flag:"u" usage:"a uint"`
		F    float64 `flag:"f" usage:"a float"`
		Skip int     `json:"skip"`
	}
	opts.S, opts.I = "dflt", 7
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Bind(fs, &opts)

	if fs.Lookup("skip") != nil || fs.Lookup("Skip") != nil {
		t.Fatal("an untagged field became a flag")
	}
	if f := fs.Lookup("s"); f.DefValue != "dflt" || f.Usage != "a string" {
		t.Fatalf("-s default %q usage %q", f.DefValue, f.Usage)
	}
	if err := fs.Parse([]string{"-b", "-u", "9", "-f", "0.5", "-s", "x"}); err != nil {
		t.Fatal(err)
	}
	if opts.S != "x" || !opts.B || opts.I != 7 || opts.U != 9 || opts.F != 0.5 {
		t.Fatalf("parsed %+v", opts)
	}
}

// TestBindUnsupportedKind panics with the flag and the field type.
func TestBindUnsupportedKind(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "-d") || !strings.Contains(r.(string), "int32") {
			t.Fatalf("recovered %v, want a panic naming -d and int32", r)
		}
	}()
	var opts struct {
		D int32 `flag:"d"`
	}
	Bind(flag.NewFlagSet("t", flag.ContinueOnError), &opts)
}
