module aic/bench

go 1.22

require aic v0.0.0

replace aic => ../
