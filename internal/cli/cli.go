// Package cli is the shared driver of the family CLIs. Bind turns a
// request family's Options struct into command-line flags, so the struct
// that the serving layer decodes from JSON is also the one declaration
// of the CLI's flag surface; Main is the whole main function around a
// command's run step.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"
)

// Bind registers one flag on fs for every field of the struct opts
// points to that carries a `flag:"name"` tag, with the field's `usage`
// tag as its help text. The field's value at the time of the call is the
// flag's default, so a main pre-fills opts with its defaults before
// binding; parsing then writes straight into the fields. Bind panics on
// a tagged field of a kind that it cannot bind: that is a declaration
// error, and any test that builds the flag set catches it.
func Bind(fs *flag.FlagSet, opts any) {
	v := reflect.ValueOf(opts).Elem()
	for i := range v.NumField() {
		f := v.Type().Field(i)
		name, ok := f.Tag.Lookup("flag")
		if !ok {
			continue
		}
		usage := f.Tag.Get("usage")
		switch p := v.Field(i).Addr().Interface().(type) {
		case *string:
			fs.StringVar(p, name, *p, usage)
		case *bool:
			fs.BoolVar(p, name, *p, usage)
		case *int:
			fs.IntVar(p, name, *p, usage)
		case *uint64:
			fs.Uint64Var(p, name, *p, usage)
		case *float64:
			fs.Float64Var(p, name, *p, usage)
		default:
			panic(fmt.Sprintf("cli: flag -%s: cannot bind a %s field", name, f.Type))
		}
	}
}

// Main is the main function of the command called name. flags binds the
// command's flags and returns the options that parsing fills; run writes
// the command's output to stdout and may report engine statistics. A
// failed run prints "<name>: <err>" on stderr and exits 1. A successful
// one ends with one stderr line, its wall time after the engine
// statistics when run reports any: "(engine: <stats>; 1.2s)" or "(1.2s)".
// Stdout carries only what run writes.
func Main[O any](name string, flags func(*flag.FlagSet) O, run func(io.Writer, O) (fmt.Stringer, error)) {
	os.Exit(drive(flag.CommandLine, os.Args[1:], os.Stdout, os.Stderr, name, flags, run))
}

// drive is Main on a given flag set, arguments and output streams; it
// returns the exit code (2 for a flag error that fs does not exit on).
func drive[O any](fs *flag.FlagSet, args []string, stdout, stderr io.Writer, name string,
	flags func(*flag.FlagSet) O, run func(io.Writer, O) (fmt.Stringer, error)) int {
	opts := flags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	start := time.Now()
	stats, err := run(stdout, opts)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
	wall := time.Since(start).Round(time.Millisecond)
	if stats != nil {
		fmt.Fprintf(stderr, "(engine: %s; %s)\n", stats, wall)
	} else {
		fmt.Fprintf(stderr, "(%s)\n", wall)
	}
	return 0
}
