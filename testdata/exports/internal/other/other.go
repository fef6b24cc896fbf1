package other

import d "skyloader/internal/dead"

// Call calls dead.Sibling and dead.T.Used through the import.
func Call() {
	d.Sibling()
	var t d.T
	t.Used()
	Shadowed := 1
	_ = Shadowed
}
