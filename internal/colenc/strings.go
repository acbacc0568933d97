package colenc

import "strconv"

// NullCell is the text tables' not-applicable sentinel; FromStrings maps
// it to a null slot and Strings maps nulls back to it.
const NullCell = "-"

// FromStrings builds a columnar table from a rendered string table (the
// charexp.Table shape) with deterministic, round-trip-safe type
// inference: a column whose every non-null cell formats back identically
// from strconv.ParseInt (base 10) becomes TypeInt64, else from
// strconv.ParseFloat ('g', -1) becomes TypeFloat64, else it stays
// TypeString. Cells equal to NullCell become null slots. The inference
// depends only on the cell contents, so the encoding of a given table is
// stable enough to pin with a byte-level golden.
func FromStrings(name string, meta [][2]string, columns []string, rows [][]string) *Table {
	t := &Table{Name: name, Meta: meta, Cols: make([]Column, len(columns))}
	for ci, colName := range columns {
		cells := make([]string, len(rows))
		valid := make([]bool, len(rows))
		nullable := false
		for ri, row := range rows {
			cell := ""
			if ci < len(row) {
				cell = row[ci]
			}
			if cell == NullCell {
				nullable = true
				continue
			}
			cells[ri], valid[ri] = cell, true
		}
		c := inferColumn(colName, cells, valid)
		c.Field.Nullable = nullable
		if !nullable {
			c.Valid = nil
		}
		t.Cols[ci] = c
	}
	return t
}

// inferColumn types one column from its non-null cells.
func inferColumn(name string, cells []string, valid []bool) Column {
	ints := make([]int64, len(cells))
	isInt := true
	for i, cell := range cells {
		if !valid[i] {
			continue
		}
		v, err := strconv.ParseInt(cell, 10, 64)
		if err != nil || strconv.FormatInt(v, 10) != cell {
			isInt = false
			break
		}
		ints[i] = v
	}
	if isInt {
		return Column{Field: Field{Name: name, Type: TypeInt64}, Int64s: ints, Valid: valid}
	}
	floats := make([]float64, len(cells))
	isFloat := true
	for i, cell := range cells {
		if !valid[i] {
			continue
		}
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil || strconv.FormatFloat(v, 'g', -1, 64) != cell {
			isFloat = false
			break
		}
		floats[i] = v
	}
	if isFloat {
		return Column{Field: Field{Name: name, Type: TypeFloat64}, Float64s: floats, Valid: valid}
	}
	return Column{Field: Field{Name: name, Type: TypeString}, Strings: cells, Valid: valid}
}

// Strings renders the table back into string cells: the inverse of
// FromStrings for tables it produced (ints via FormatInt, floats via
// FormatFloat 'g' -1, nulls as NullCell). Typed tables built directly by
// the result families also render losslessly here; their text and csv
// reports print through the family's cell formatter instead
// (charexp.TypedReport).
func (t *Table) Strings() (columns []string, rows [][]string) {
	return t.StringsFunc((*Column).CellString)
}

// StringsFunc renders the table into string cells through cell, which
// formats row i of one column.
func (t *Table) StringsFunc(cell func(c *Column, i int) string) (columns []string, rows [][]string) {
	nc := len(t.Cols)
	columns = make([]string, nc)
	for i := range t.Cols {
		columns[i] = t.Cols[i].Field.Name
	}
	rows = make([][]string, t.NumRows())
	cells := make([]string, len(rows)*nc)
	for ri := range rows {
		row := cells[ri*nc : (ri+1)*nc : (ri+1)*nc]
		for ci := range t.Cols {
			row[ci] = cell(&t.Cols[ci], ri)
		}
		rows[ri] = row
	}
	return columns, rows
}

// Null reports whether row i is a null slot.
func (c *Column) Null(i int) bool { return !c.valid(i) }

// CellString renders row i of the column as the text tables would print
// it (NullCell for null slots).
func (c *Column) CellString(i int) string {
	if !c.valid(i) {
		return NullCell
	}
	switch c.Field.Type {
	case TypeInt64:
		return strconv.FormatInt(c.Int64s[i], 10)
	case TypeFloat64:
		return strconv.FormatFloat(c.Float64s[i], 'g', -1, 64)
	case TypeString:
		return c.Strings[i]
	default:
		return strconv.FormatBool(c.Bools[i])
	}
}
