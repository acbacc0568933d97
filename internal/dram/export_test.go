package dram

// SetTableBudget overrides the table registry's byte budget, evicting at
// once down to the new budget, until the returned function restores the
// previous one. Tests that call it must not run in parallel.
func SetTableBudget(budget int64) (restore func()) {
	tableReg.Lock()
	defer tableReg.Unlock()
	old := tableRegBudget
	tableRegBudget = budget
	evictOverBudget()
	return func() {
		tableReg.Lock()
		defer tableReg.Unlock()
		tableRegBudget = old
	}
}
