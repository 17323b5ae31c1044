module kor/bench

go 1.24

require kor v0.0.0

replace kor => ../
