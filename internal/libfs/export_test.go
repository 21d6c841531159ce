package libfs

// FreeStaged exposes freeStaged to the external tests.
var FreeStaged = (*Session).freeStaged
