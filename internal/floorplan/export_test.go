package floorplan

// Hooks for the external tests of this package, which drive the
// schedulers over the shared catalog.
var (
	ResetCatalog  = resetCatalog
	CatalogBuilds = catalogBuilds
)
