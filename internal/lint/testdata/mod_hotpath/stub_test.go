package hotpathfix_test

import "hotpathfix/internal/nic"

// Importing nic here reads its export data first, which registers a stub
// file under nic.go's name — ahead of the parsed source, and only as long
// as nic.go's last exported declaration.
var _ nic.Cell
