package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"regexp"
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

// fakeStats stands in for the engine statistics a run reports.
type fakeStats string

func (s fakeStats) String() string { return string(s) }

// TestDrive runs the driver over a one-flag command: flags parse into the
// options, stdout carries only the run's output, and stderr gets the
// error line or the one trailer, with the engine stats when reported.
func TestDrive(t *testing.T) {
	flags := func(fs *flag.FlagSet) *string { return fs.String("say", "hi", "what to print") }
	for _, c := range []struct {
		args             []string
		stats            fmt.Stringer
		err              error
		code             int
		stdout, stderrRE string
	}{
		{[]string{"-say", "yo"}, nil, nil, 0, "yo\n", `^\([\d.]+m?s\)\n$`},
		{nil, fakeStats("3 runs"), nil, 0, "hi\n", `^\(engine: 3 runs; [\d.]+m?s\)\n$`},
		{nil, fakeStats("3 runs"), errors.New("boom"), 1, "hi\n", `^cmd: boom\n$`},
		{[]string{"-nope"}, nil, nil, 2, "", `flag provided but not defined: -nope`},
	} {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		var stdout, stderr strings.Builder
		fs.SetOutput(&stderr)
		code := drive(fs, c.args, &stdout, &stderr, "cmd", flags, func(w io.Writer, say *string) (fmt.Stringer, error) {
			fmt.Fprintln(w, *say)
			return c.stats, c.err
		})
		if code != c.code || stdout.String() != c.stdout || !regexp.MustCompile(c.stderrRE).MatchString(stderr.String()) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", c.args, code, stdout.String(), stderr.String())
		}
	}
}
