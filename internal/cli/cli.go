// Package cli binds a request family's Options struct to command-line
// flags, so the struct that the serving layer decodes from JSON is also
// the one declaration of the family CLI's flag surface.
package cli

import (
	"flag"
	"fmt"
	"reflect"
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
