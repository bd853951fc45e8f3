module github.com/fastmath/pumi-go/bench

go 1.23

require github.com/fastmath/pumi-go v0.0.0

replace github.com/fastmath/pumi-go => ../
