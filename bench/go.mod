module quickdrop/bench

go 1.22

require quickdrop v0.0.0

replace quickdrop => ../
