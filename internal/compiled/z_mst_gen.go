// Code generated by gogen from program "mst" (fingerprint 9f5315226aea193e); DO NOT EDIT.

package compiled

import (
	"fmt"
	"repro/internal/fault"
	"repro/internal/spmd"
	"repro/internal/vec"
)

func init() {
	Register("9f5315226aea193e", "reset", 8, k_mst_reset_w8)
	Register("9f5315226aea193e", "findmin", 8, k_mst_findmin_w8)
	Register("9f5315226aea193e", "union", 8, k_mst_union_w8)
	Register("9f5315226aea193e", "compress", 8, k_mst_compress_w8)
	Register("9f5315226aea193e", "reset", 16, k_mst_reset_w16)
	Register("9f5315226aea193e", "findmin", 16, k_mst_findmin_w16)
	Register("9f5315226aea193e", "union", 16, k_mst_union_w16)
	Register("9f5315226aea193e", "compress", 16, k_mst_compress_w16)
}

// k_mst_reset_w8 is kernel "reset" of program "mst" specialized to width 8.
func k_mst_reset_w8(b *Binding, tc *spmd.TaskCtx) {
	a_minedge := b.Arrays["minedge"]
	var rI0 vec.Vec
	var chunkBase int32
	_, _ = rI0, chunkBase
	tc.MarkPhase("reset")
	var n int32
	n = b.NumNodes
	if n == 0 {
		return
	}
	chunksTotal := (n + 7) / 8
	chunksPer := (chunksTotal + int32(tc.Count) - 1) / int32(tc.Count)
	start := int32(tc.Index) * chunksPer * 8
	end := start + chunksPer*8
	if end > n {
		end = n
	}
	if start >= end {
		return
	}
	chunks := (end - start + 7) / 8
	fibers := (n + int32(8*tc.Count) - 1) / int32(8*tc.Count)
	if fibers > b.MaxFibers {
		fibers = b.MaxFibers
	}
	if fibers < 1 {
		fibers = 1
	}
	for f := int32(0); f < fibers; f++ {
		for ci := f; ci < chunks; ci += fibers {
			tc.ScalarOps(2)
			base := start + ci*8
			cnt := end - base
			if cnt > 8 {
				cnt = 8
			}
			if cnt <= 0 {
				continue
			}
			m0 := vec.FullMask(int(cnt))
			if b.SellPerm != nil {
				tc.LoadVecIP(b.SellPerm, base, m0, &rI0)
			} else {
				tc.Op(vec.ClassALU, false)
				for i := 0; i < 8; i++ {
					rI0[i] = base + int32(i)
				}
			}
			chunkBase = base
			tc.Work(int(cnt))
			if m0.Any() {
				t1 := vec.Splat(int32(2147483647))
				tc.ScatterIP(a_minedge, &rI0, &t1, m0)
			}
		}
	}
}

// k_mst_findmin_w8 is kernel "findmin" of program "mst" specialized to width 8.
func k_mst_findmin_w8(b *Binding, tc *spmd.TaskCtx) {
	a_comp := b.Arrays["comp"]
	a_minedge := b.Arrays["minedge"]
	const kregs = 5
	var p1I0, p1I1, p1I2, p1I3, p1I4 vec.Vec
	var rI0, rI1, rI2, rI3, rI4 vec.Vec
	var cellDst, cellWt vec.Vec
	var chunkBase int32
	_, _, _, _, _, _, _, _ = p1I0, p1I1, p1I2, p1I3, p1I4, rI0, rI1, rI2
	_, _, _, _, _ = rI3, rI4, cellDst, cellWt, chunkBase
	tc.MarkPhase("findmin")
	var n int32
	n = b.NumNodes
	if n == 0 {
		return
	}
	chunksTotal := (n + 7) / 8
	chunksPer := (chunksTotal + int32(tc.Count) - 1) / int32(tc.Count)
	start := int32(tc.Index) * chunksPer * 8
	end := start + chunksPer*8
	if end > n {
		end = n
	}
	if start >= end {
		return
	}
	chunks := (end - start + 7) / 8
	fibers := (n + int32(8*tc.Count) - 1) / int32(8*tc.Count)
	if fibers > b.MaxFibers {
		fibers = b.MaxFibers
	}
	if fibers < 1 {
		fibers = 1
	}
	for f := int32(0); f < fibers; f++ {
		for ci := f; ci < chunks; ci += fibers {
			tc.ScalarOps(2)
			base := start + ci*8
			cnt := end - base
			if cnt > 8 {
				cnt = 8
			}
			if cnt <= 0 {
				continue
			}
			m0 := vec.FullMask(int(cnt))
			if b.SellPerm != nil {
				tc.LoadVecIP(b.SellPerm, base, m0, &rI0)
			} else {
				tc.Op(vec.ClassALU, false)
				for i := 0; i < 8; i++ {
					rI0[i] = base + int32(i)
				}
			}
			chunkBase = base
			tc.Work(int(cnt))
			var t1 vec.Vec
			tc.GatherIP(a_comp, &rI0, m0, false, &t1)
			if m0.All(8) {
				for i := 0; i < 8; i++ {
					rI1[i] = t1[i]
				}
			} else {
				tc.Op(vec.ClassBlend, true)
				for i := 0; i < 8; i++ {
					if m0.Bit(i) {
						rI1[i] = t1[i]
					}
				}
			}
			disp43 := false
			if sl44 := b.Sell; sl44 != nil && int(sl44.C) == 8 && !sl44.IsFallback(chunkBase/sl44.C) {
				tc.ScalarOps(1)
				if 2*m0.PopCount() >= 8 {
					disp43 = true
					if m0.Any() {
						sell := b.Sell
						sli := chunkBase / sell.C
						sst := sell.SlicePtr[sli]
						sht := (sell.SlicePtr[sli+1] - sst) / sell.C
						fullM := vec.FullMask(8)
						tc.ScalarOps(2)
						for j := int32(0); j < sht; j++ {
							off := sst + j*sell.C
							tc.LoadVecIP(b.SellDst, off, fullM, &cellDst)
							tc.Op(vec.ClassCmp, false)
							var act34 vec.Mask
							for i := 0; i < 8; i++ {
								if cellDst[i] >= 0 {
									act34 = act34.Set(i)
								}
							}
							act34 &= m0
							tc.InnerTally(act34.PopCount())
							if act34.None() {
								break
							}
							tc.NoteSellColumn(act34.PopCount())
							if b.SellWt != nil {
								tc.LoadVecIP(b.SellWt, off, fullM, &cellWt)
							} else {
								for i := 0; i < 8; i++ {
									cellWt[i] = 1
								}
							}
							var t42 vec.Vec
							tc.LoadVecIP(b.SellEid, off, fullM, &t42)
							tc.Op(vec.ClassBlend, true)
							for i := 0; i < 8; i++ {
								if act34.Bit(i) {
									rI2[i] = t42[i]
								}
							}
							var t35 vec.Vec
							tc.GatherIP(a_comp, &cellDst, act34, true, &t35)
							if act34.All(8) {
								for i := 0; i < 8; i++ {
									rI3[i] = t35[i]
								}
							} else {
								tc.Op(vec.ClassBlend, true)
								for i := 0; i < 8; i++ {
									if act34.Bit(i) {
										rI3[i] = t35[i]
									}
								}
							}
							tc.InnerOp(vec.ClassCmp, !act34.All(8), act34.PopCount())
							var k36 vec.Mask
							for i := 0; i < 8; i++ {
								if act34.Bit(i) && rI1[i] != rI3[i] {
									k36 = k36.Set(i)
								}
							}
							cm37 := k36
							if tm38 := act34 & cm37; tm38.Any() {
								tc.InnerOp(vec.ClassALU, !tm38.All(8), tm38.PopCount())
								var t39 vec.Vec
								for i := 0; i < 8; i++ {
									if tm38.Bit(i) {
										t39[i] = cellWt[i] << (uint32(int32(24)) & 31)
									} else {
										t39[i] = cellWt[i]
									}
								}
								tc.InnerOp(vec.ClassALU, !tm38.All(8), tm38.PopCount())
								var t40 vec.Vec
								for i := 0; i < 8; i++ {
									if tm38.Bit(i) {
										t40[i] = t39[i] | rI2[i]
									} else {
										t40[i] = t39[i]
									}
								}
								if tm38.All(8) {
									for i := 0; i < 8; i++ {
										rI4[i] = t40[i]
									}
								} else {
									tc.Op(vec.ClassBlend, true)
									for i := 0; i < 8; i++ {
										if tm38.Bit(i) {
											rI4[i] = t40[i]
										}
									}
								}
								if tm38.Any() {
									won41 := tc.AtomicMinLanesP(a_minedge, &rI1, &rI4, tm38)
									_ = won41
								}
							}
						}
					}
				}
			}
			if !disp43 {
				if m0.Any() {
					var rs2 vec.Vec
					tc.GatherIP(b.RowPtr, &rI0, m0, false, &rs2)
					tc.Op(vec.ClassALU, false)
					var t4 vec.Vec
					for i := 0; i < 8; i++ {
						if m0.Bit(i) {
							t4[i] = rI0[i] + 1
						} else {
							t4[i] = rI0[i]
						}
					}
					var re3 vec.Vec
					tc.GatherIP(b.RowPtr, &t4, m0, false, &re3)
					tc.Op(vec.ClassALU, false)
					var deg5 vec.Vec
					for i := 0; i < 8; i++ {
						if m0.Bit(i) {
							deg5[i] = re3[i] - rs2[i]
						} else {
							deg5[i] = re3[i]
						}
					}
					tc.Op(vec.ClassCmp, false)
					var big6 vec.Mask
					for i := 0; i < 8; i++ {
						if m0.Bit(i) && deg5[i] >= b.BigDeg {
							big6 = big6.Set(i)
						}
					}
					small7 := m0 &^ big6
					for l := 0; l < 8; l++ {
						if !big6.Bit(l) {
							continue
						}
						tc.ScalarOps(2)
						tc.OpN(vec.ClassALU, false, kregs)
						for i := 0; i < 8; i++ {
							p1I0[i] = rI0[l]
							p1I1[i] = rI1[l]
							p1I2[i] = rI2[l]
							p1I3[i] = rI3[l]
							p1I4[i] = rI4[l]
						}
						eb8, et9 := rs2[l], re3[l]
						for eb := eb8; eb < et9; eb += 8 {
							ec := et9 - eb
							if ec > 8 {
								ec = 8
							}
							em10 := vec.FullMask(int(ec))
							tc.InnerOp(vec.ClassALU, true, em10.PopCount())
							for i := 0; i < 8; i++ {
								if em10.Bit(i) {
									p1I2[i] = eb + int32(i)
								} else {
									p1I2[i] = eb
								}
							}
							var t11 vec.Vec
							tc.GatherIP(b.EdgeDst, &p1I2, em10, true, &t11)
							var t12 vec.Vec
							tc.GatherIP(a_comp, &t11, em10, true, &t12)
							if em10.All(8) {
								for i := 0; i < 8; i++ {
									p1I3[i] = t12[i]
								}
							} else {
								tc.Op(vec.ClassBlend, true)
								for i := 0; i < 8; i++ {
									if em10.Bit(i) {
										p1I3[i] = t12[i]
									}
								}
							}
							tc.InnerOp(vec.ClassCmp, !em10.All(8), em10.PopCount())
							var k13 vec.Mask
							for i := 0; i < 8; i++ {
								if em10.Bit(i) && p1I1[i] != p1I3[i] {
									k13 = k13.Set(i)
								}
							}
							cm14 := k13
							if tm15 := em10 & cm14; tm15.Any() {
								var t16 vec.Vec
								if b.EdgeWt != nil {
									tc.GatherIP(b.EdgeWt, &p1I2, tm15, true, &t16)
								} else {
									for i := 0; i < 8; i++ {
										t16[i] = 1
									}
								}
								tc.InnerOp(vec.ClassALU, !tm15.All(8), tm15.PopCount())
								var t17 vec.Vec
								for i := 0; i < 8; i++ {
									if tm15.Bit(i) {
										t17[i] = t16[i] << (uint32(int32(24)) & 31)
									} else {
										t17[i] = t16[i]
									}
								}
								tc.InnerOp(vec.ClassALU, !tm15.All(8), tm15.PopCount())
								var t18 vec.Vec
								for i := 0; i < 8; i++ {
									if tm15.Bit(i) {
										t18[i] = t17[i] | p1I2[i]
									} else {
										t18[i] = t17[i]
									}
								}
								if tm15.All(8) {
									for i := 0; i < 8; i++ {
										p1I4[i] = t18[i]
									}
								} else {
									tc.Op(vec.ClassBlend, true)
									for i := 0; i < 8; i++ {
										if tm15.Bit(i) {
											p1I4[i] = t18[i]
										}
									}
								}
								if tm15.Any() {
									won19 := tc.AtomicMinLanesP(a_minedge, &p1I1, &p1I4, tm15)
									_ = won19
								}
							}
						}
					}
					if small7.Any() {
						tc.Op(vec.ClassScan, false)
						var offs20 vec.Vec
						tot21 := int32(0)
						for i := 0; i < 8; i++ {
							if small7.Bit(i) {
								offs20[i] = tot21
								tot21 += deg5[i]
							}
						}
						if tot21 != 0 {
							var sbuf22, ebuf23 [vec.MaxWidth * vec.MaxWidth]int32
							for l := 0; l < 8; l++ {
								if !small7.Bit(l) {
									continue
								}
								o := offs20[l]
								for j := int32(0); j < deg5[l]; j++ {
									sbuf22[o+j] = int32(l)
									ebuf23[o+j] = rs2[l] + j
								}
							}
							tc.OpN(vec.ClassVStore, false, (int(tot21)+7)/8)
							for pb := int32(0); pb < tot21; pb += 8 {
								pc := tot21 - pb
								if pc > 8 {
									pc = 8
								}
								em24 := vec.FullMask(int(pc))
								tc.OpN(vec.ClassVLoad, false, 2)
								tc.OpN(vec.ClassALU, false, kregs)
								for i := 0; i < 8; i++ {
									si := 0
									if int32(i) < pc {
										si = int(sbuf22[pb+int32(i)])
									}
									p1I0[i] = rI0[si]
									p1I1[i] = rI1[si]
									p1I2[i] = rI2[si]
									p1I3[i] = rI3[si]
									p1I4[i] = rI4[si]
								}
								for i := 0; i < 8; i++ {
									if int32(i) < pc {
										p1I2[i] = ebuf23[pb+int32(i)]
									} else {
										p1I2[i] = 0
									}
								}
								var t25 vec.Vec
								tc.GatherIP(b.EdgeDst, &p1I2, em24, true, &t25)
								var t26 vec.Vec
								tc.GatherIP(a_comp, &t25, em24, true, &t26)
								if em24.All(8) {
									for i := 0; i < 8; i++ {
										p1I3[i] = t26[i]
									}
								} else {
									tc.Op(vec.ClassBlend, true)
									for i := 0; i < 8; i++ {
										if em24.Bit(i) {
											p1I3[i] = t26[i]
										}
									}
								}
								tc.InnerOp(vec.ClassCmp, !em24.All(8), em24.PopCount())
								var k27 vec.Mask
								for i := 0; i < 8; i++ {
									if em24.Bit(i) && p1I1[i] != p1I3[i] {
										k27 = k27.Set(i)
									}
								}
								cm28 := k27
								if tm29 := em24 & cm28; tm29.Any() {
									var t30 vec.Vec
									if b.EdgeWt != nil {
										tc.GatherIP(b.EdgeWt, &p1I2, tm29, true, &t30)
									} else {
										for i := 0; i < 8; i++ {
											t30[i] = 1
										}
									}
									tc.InnerOp(vec.ClassALU, !tm29.All(8), tm29.PopCount())
									var t31 vec.Vec
									for i := 0; i < 8; i++ {
										if tm29.Bit(i) {
											t31[i] = t30[i] << (uint32(int32(24)) & 31)
										} else {
											t31[i] = t30[i]
										}
									}
									tc.InnerOp(vec.ClassALU, !tm29.All(8), tm29.PopCount())
									var t32 vec.Vec
									for i := 0; i < 8; i++ {
										if tm29.Bit(i) {
											t32[i] = t31[i] | p1I2[i]
										} else {
											t32[i] = t31[i]
										}
									}
									if tm29.All(8) {
										for i := 0; i < 8; i++ {
											p1I4[i] = t32[i]
										}
									} else {
										tc.Op(vec.ClassBlend, true)
										for i := 0; i < 8; i++ {
											if tm29.Bit(i) {
												p1I4[i] = t32[i]
											}
										}
									}
									if tm29.Any() {
										won33 := tc.AtomicMinLanesP(a_minedge, &p1I1, &p1I4, tm29)
										_ = won33
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// k_mst_union_w8 is kernel "union" of program "mst" specialized to width 8.
func k_mst_union_w8(b *Binding, tc *spmd.TaskCtx) {
	a_comp := b.Arrays["comp"]
	a_minedge := b.Arrays["minedge"]
	a_mstwt := b.Arrays["mstwt"]
	a_changed := b.Arrays["changed"]
	var rI0, rI1, rI2, rI3 vec.Vec
	var chunkBase int32
	_, _, _, _, _ = rI0, rI1, rI2, rI3, chunkBase
	tc.MarkPhase("union")
	var n int32
	n = b.NumNodes
	if n == 0 {
		return
	}
	chunksTotal := (n + 7) / 8
	chunksPer := (chunksTotal + int32(tc.Count) - 1) / int32(tc.Count)
	start := int32(tc.Index) * chunksPer * 8
	end := start + chunksPer*8
	if end > n {
		end = n
	}
	if start >= end {
		return
	}
	chunks := (end - start + 7) / 8
	fibers := (n + int32(8*tc.Count) - 1) / int32(8*tc.Count)
	if fibers > b.MaxFibers {
		fibers = b.MaxFibers
	}
	if fibers < 1 {
		fibers = 1
	}
	for f := int32(0); f < fibers; f++ {
		for ci := f; ci < chunks; ci += fibers {
			tc.ScalarOps(2)
			base := start + ci*8
			cnt := end - base
			if cnt > 8 {
				cnt = 8
			}
			if cnt <= 0 {
				continue
			}
			m0 := vec.FullMask(int(cnt))
			if b.SellPerm != nil {
				tc.LoadVecIP(b.SellPerm, base, m0, &rI0)
			} else {
				tc.Op(vec.ClassALU, false)
				for i := 0; i < 8; i++ {
					rI0[i] = base + int32(i)
				}
			}
			chunkBase = base
			tc.Work(int(cnt))
			var t1 vec.Vec
			tc.GatherIP(a_comp, &rI0, m0, false, &t1)
			tc.Op(vec.ClassCmp, !m0.All(8))
			var k2 vec.Mask
			for i := 0; i < 8; i++ {
				if m0.Bit(i) && t1[i] == rI0[i] {
					k2 = k2.Set(i)
				}
			}
			cm3 := k2
			if tm4 := m0 & cm3; tm4.Any() {
				var t5 vec.Vec
				tc.GatherIP(a_minedge, &rI0, tm4, false, &t5)
				if tm4.All(8) {
					for i := 0; i < 8; i++ {
						rI1[i] = t5[i]
					}
				} else {
					tc.Op(vec.ClassBlend, true)
					for i := 0; i < 8; i++ {
						if tm4.Bit(i) {
							rI1[i] = t5[i]
						}
					}
				}
				tc.Op(vec.ClassCmp, !tm4.All(8))
				var k6 vec.Mask
				for i := 0; i < 8; i++ {
					if tm4.Bit(i) && rI1[i] != int32(2147483647) {
						k6 = k6.Set(i)
					}
				}
				cm7 := k6
				if tm8 := tm4 & cm7; tm8.Any() {
					tc.Op(vec.ClassALU, !tm8.All(8))
					var t9 vec.Vec
					for i := 0; i < 8; i++ {
						if tm8.Bit(i) {
							t9[i] = rI1[i] & int32(16777215)
						} else {
							t9[i] = rI1[i]
						}
					}
					if tm8.All(8) {
						for i := 0; i < 8; i++ {
							rI2[i] = t9[i]
						}
					} else {
						tc.Op(vec.ClassBlend, true)
						for i := 0; i < 8; i++ {
							if tm8.Bit(i) {
								rI2[i] = t9[i]
							}
						}
					}
					var t10 vec.Vec
					tc.GatherIP(b.EdgeDst, &rI2, tm8, false, &t10)
					var t11 vec.Vec
					tc.GatherIP(a_comp, &t10, tm8, false, &t11)
					if tm8.All(8) {
						for i := 0; i < 8; i++ {
							rI3[i] = t11[i]
						}
					} else {
						tc.Op(vec.ClassBlend, true)
						for i := 0; i < 8; i++ {
							if tm8.Bit(i) {
								rI3[i] = t11[i]
							}
						}
					}
					tc.Op(vec.ClassCmp, !tm8.All(8))
					var k12 vec.Mask
					for i := 0; i < 8; i++ {
						if tm8.Bit(i) && rI3[i] < rI0[i] {
							k12 = k12.Set(i)
						}
					}
					cm13 := k12
					if tm14 := tm8 & cm13; tm14.Any() {
						if tm14.Any() {
							tc.ScatterIP(a_comp, &rI0, &rI3, tm14)
						}
						if tm14.Any() {
							tc.Op(vec.ClassReduce, false)
							tc.Op(vec.ClassALU, !tm14.All(8))
							var t15 vec.Vec
							for i := 0; i < 8; i++ {
								if tm14.Bit(i) {
									t15[i] = rI1[i] >> (uint32(int32(24)) & 31)
								} else {
									t15[i] = rI1[i]
								}
							}
							var sum16 int32
							for i := 0; i < 8; i++ {
								if tm14.Bit(i) {
									sum16 += t15[i]
								}
							}
							tc.AtomicAddScalar(a_mstwt, 0, sum16, false)
						}
						if tm14.Any() {
							tc.ScalarStoreI(a_changed, 0, 1)
						}
					}
				}
			}
		}
	}
}

// k_mst_compress_w8 is kernel "compress" of program "mst" specialized to width 8.
func k_mst_compress_w8(b *Binding, tc *spmd.TaskCtx) {
	a_comp := b.Arrays["comp"]
	var rI0 vec.Vec
	var chunkBase int32
	_, _ = rI0, chunkBase
	tc.MarkPhase("compress")
	var n int32
	n = b.NumNodes
	if n == 0 {
		return
	}
	chunksTotal := (n + 7) / 8
	chunksPer := (chunksTotal + int32(tc.Count) - 1) / int32(tc.Count)
	start := int32(tc.Index) * chunksPer * 8
	end := start + chunksPer*8
	if end > n {
		end = n
	}
	if start >= end {
		return
	}
	chunks := (end - start + 7) / 8
	fibers := (n + int32(8*tc.Count) - 1) / int32(8*tc.Count)
	if fibers > b.MaxFibers {
		fibers = b.MaxFibers
	}
	if fibers < 1 {
		fibers = 1
	}
	for f := int32(0); f < fibers; f++ {
		for ci := f; ci < chunks; ci += fibers {
			tc.ScalarOps(2)
			base := start + ci*8
			cnt := end - base
			if cnt > 8 {
				cnt = 8
			}
			if cnt <= 0 {
				continue
			}
			m0 := vec.FullMask(int(cnt))
			if b.SellPerm != nil {
				tc.LoadVecIP(b.SellPerm, base, m0, &rI0)
			} else {
				tc.Op(vec.ClassALU, false)
				for i := 0; i < 8; i++ {
					rI0[i] = base + int32(i)
				}
			}
			chunkBase = base
			tc.Work(int(cnt))
			lim1 := 4*(int64(b.NumNodes)+int64(b.NumEdges)) + 64
			act2 := m0
			for n3 := int64(0); ; n3++ {
				var t4 vec.Vec
				tc.GatherIP(a_comp, &rI0, act2, false, &t4)
				var t5 vec.Vec
				tc.GatherIP(a_comp, &t4, act2, false, &t5)
				var t6 vec.Vec
				tc.GatherIP(a_comp, &rI0, act2, false, &t6)
				tc.Op(vec.ClassCmp, !act2.All(8))
				var k7 vec.Mask
				for i := 0; i < 8; i++ {
					if act2.Bit(i) && t5[i] != t6[i] {
						k7 = k7.Set(i)
					}
				}
				act2 &= k7
				if act2.None() {
					break
				}
				if n3 >= lim1 {
					tc.Fail(fmt.Errorf("while loop exceeded %d trips (likely corrupt state): %w", lim1, fault.ErrKernelPanic))
				}
				if act2.Any() {
					var t8 vec.Vec
					tc.GatherIP(a_comp, &rI0, act2, false, &t8)
					var t9 vec.Vec
					tc.GatherIP(a_comp, &t8, act2, false, &t9)
					tc.ScatterIP(a_comp, &rI0, &t9, act2)
				}
			}
		}
	}
}

// k_mst_reset_w16 is kernel "reset" of program "mst" specialized to width 16.
func k_mst_reset_w16(b *Binding, tc *spmd.TaskCtx) {
	a_minedge := b.Arrays["minedge"]
	var rI0 vec.Vec
	var chunkBase int32
	_, _ = rI0, chunkBase
	tc.MarkPhase("reset")
	var n int32
	n = b.NumNodes
	if n == 0 {
		return
	}
	chunksTotal := (n + 15) / 16
	chunksPer := (chunksTotal + int32(tc.Count) - 1) / int32(tc.Count)
	start := int32(tc.Index) * chunksPer * 16
	end := start + chunksPer*16
	if end > n {
		end = n
	}
	if start >= end {
		return
	}
	chunks := (end - start + 15) / 16
	fibers := (n + int32(16*tc.Count) - 1) / int32(16*tc.Count)
	if fibers > b.MaxFibers {
		fibers = b.MaxFibers
	}
	if fibers < 1 {
		fibers = 1
	}
	for f := int32(0); f < fibers; f++ {
		for ci := f; ci < chunks; ci += fibers {
			tc.ScalarOps(2)
			base := start + ci*16
			cnt := end - base
			if cnt > 16 {
				cnt = 16
			}
			if cnt <= 0 {
				continue
			}
			m0 := vec.FullMask(int(cnt))
			if b.SellPerm != nil {
				tc.LoadVecIP(b.SellPerm, base, m0, &rI0)
			} else {
				tc.Op(vec.ClassALU, false)
				for i := 0; i < 16; i++ {
					rI0[i] = base + int32(i)
				}
			}
			chunkBase = base
			tc.Work(int(cnt))
			if m0.Any() {
				t1 := vec.Splat(int32(2147483647))
				tc.ScatterIP(a_minedge, &rI0, &t1, m0)
			}
		}
	}
}

// k_mst_findmin_w16 is kernel "findmin" of program "mst" specialized to width 16.
func k_mst_findmin_w16(b *Binding, tc *spmd.TaskCtx) {
	a_comp := b.Arrays["comp"]
	a_minedge := b.Arrays["minedge"]
	const kregs = 5
	var p1I0, p1I1, p1I2, p1I3, p1I4 vec.Vec
	var rI0, rI1, rI2, rI3, rI4 vec.Vec
	var cellDst, cellWt vec.Vec
	var chunkBase int32
	_, _, _, _, _, _, _, _ = p1I0, p1I1, p1I2, p1I3, p1I4, rI0, rI1, rI2
	_, _, _, _, _ = rI3, rI4, cellDst, cellWt, chunkBase
	tc.MarkPhase("findmin")
	var n int32
	n = b.NumNodes
	if n == 0 {
		return
	}
	chunksTotal := (n + 15) / 16
	chunksPer := (chunksTotal + int32(tc.Count) - 1) / int32(tc.Count)
	start := int32(tc.Index) * chunksPer * 16
	end := start + chunksPer*16
	if end > n {
		end = n
	}
	if start >= end {
		return
	}
	chunks := (end - start + 15) / 16
	fibers := (n + int32(16*tc.Count) - 1) / int32(16*tc.Count)
	if fibers > b.MaxFibers {
		fibers = b.MaxFibers
	}
	if fibers < 1 {
		fibers = 1
	}
	for f := int32(0); f < fibers; f++ {
		for ci := f; ci < chunks; ci += fibers {
			tc.ScalarOps(2)
			base := start + ci*16
			cnt := end - base
			if cnt > 16 {
				cnt = 16
			}
			if cnt <= 0 {
				continue
			}
			m0 := vec.FullMask(int(cnt))
			if b.SellPerm != nil {
				tc.LoadVecIP(b.SellPerm, base, m0, &rI0)
			} else {
				tc.Op(vec.ClassALU, false)
				for i := 0; i < 16; i++ {
					rI0[i] = base + int32(i)
				}
			}
			chunkBase = base
			tc.Work(int(cnt))
			var t1 vec.Vec
			tc.GatherIP(a_comp, &rI0, m0, false, &t1)
			if m0.All(16) {
				for i := 0; i < 16; i++ {
					rI1[i] = t1[i]
				}
			} else {
				tc.Op(vec.ClassBlend, true)
				for i := 0; i < 16; i++ {
					if m0.Bit(i) {
						rI1[i] = t1[i]
					}
				}
			}
			disp43 := false
			if sl44 := b.Sell; sl44 != nil && int(sl44.C) == 16 && !sl44.IsFallback(chunkBase/sl44.C) {
				tc.ScalarOps(1)
				if 2*m0.PopCount() >= 16 {
					disp43 = true
					if m0.Any() {
						sell := b.Sell
						sli := chunkBase / sell.C
						sst := sell.SlicePtr[sli]
						sht := (sell.SlicePtr[sli+1] - sst) / sell.C
						fullM := vec.FullMask(16)
						tc.ScalarOps(2)
						for j := int32(0); j < sht; j++ {
							off := sst + j*sell.C
							tc.LoadVecIP(b.SellDst, off, fullM, &cellDst)
							tc.Op(vec.ClassCmp, false)
							var act34 vec.Mask
							for i := 0; i < 16; i++ {
								if cellDst[i] >= 0 {
									act34 = act34.Set(i)
								}
							}
							act34 &= m0
							tc.InnerTally(act34.PopCount())
							if act34.None() {
								break
							}
							tc.NoteSellColumn(act34.PopCount())
							if b.SellWt != nil {
								tc.LoadVecIP(b.SellWt, off, fullM, &cellWt)
							} else {
								for i := 0; i < 16; i++ {
									cellWt[i] = 1
								}
							}
							var t42 vec.Vec
							tc.LoadVecIP(b.SellEid, off, fullM, &t42)
							tc.Op(vec.ClassBlend, true)
							for i := 0; i < 16; i++ {
								if act34.Bit(i) {
									rI2[i] = t42[i]
								}
							}
							var t35 vec.Vec
							tc.GatherIP(a_comp, &cellDst, act34, true, &t35)
							if act34.All(16) {
								for i := 0; i < 16; i++ {
									rI3[i] = t35[i]
								}
							} else {
								tc.Op(vec.ClassBlend, true)
								for i := 0; i < 16; i++ {
									if act34.Bit(i) {
										rI3[i] = t35[i]
									}
								}
							}
							tc.InnerOp(vec.ClassCmp, !act34.All(16), act34.PopCount())
							var k36 vec.Mask
							for i := 0; i < 16; i++ {
								if act34.Bit(i) && rI1[i] != rI3[i] {
									k36 = k36.Set(i)
								}
							}
							cm37 := k36
							if tm38 := act34 & cm37; tm38.Any() {
								tc.InnerOp(vec.ClassALU, !tm38.All(16), tm38.PopCount())
								var t39 vec.Vec
								for i := 0; i < 16; i++ {
									if tm38.Bit(i) {
										t39[i] = cellWt[i] << (uint32(int32(24)) & 31)
									} else {
										t39[i] = cellWt[i]
									}
								}
								tc.InnerOp(vec.ClassALU, !tm38.All(16), tm38.PopCount())
								var t40 vec.Vec
								for i := 0; i < 16; i++ {
									if tm38.Bit(i) {
										t40[i] = t39[i] | rI2[i]
									} else {
										t40[i] = t39[i]
									}
								}
								if tm38.All(16) {
									for i := 0; i < 16; i++ {
										rI4[i] = t40[i]
									}
								} else {
									tc.Op(vec.ClassBlend, true)
									for i := 0; i < 16; i++ {
										if tm38.Bit(i) {
											rI4[i] = t40[i]
										}
									}
								}
								if tm38.Any() {
									won41 := tc.AtomicMinLanesP(a_minedge, &rI1, &rI4, tm38)
									_ = won41
								}
							}
						}
					}
				}
			}
			if !disp43 {
				if m0.Any() {
					var rs2 vec.Vec
					tc.GatherIP(b.RowPtr, &rI0, m0, false, &rs2)
					tc.Op(vec.ClassALU, false)
					var t4 vec.Vec
					for i := 0; i < 16; i++ {
						if m0.Bit(i) {
							t4[i] = rI0[i] + 1
						} else {
							t4[i] = rI0[i]
						}
					}
					var re3 vec.Vec
					tc.GatherIP(b.RowPtr, &t4, m0, false, &re3)
					tc.Op(vec.ClassALU, false)
					var deg5 vec.Vec
					for i := 0; i < 16; i++ {
						if m0.Bit(i) {
							deg5[i] = re3[i] - rs2[i]
						} else {
							deg5[i] = re3[i]
						}
					}
					tc.Op(vec.ClassCmp, false)
					var big6 vec.Mask
					for i := 0; i < 16; i++ {
						if m0.Bit(i) && deg5[i] >= b.BigDeg {
							big6 = big6.Set(i)
						}
					}
					small7 := m0 &^ big6
					for l := 0; l < 16; l++ {
						if !big6.Bit(l) {
							continue
						}
						tc.ScalarOps(2)
						tc.OpN(vec.ClassALU, false, kregs)
						for i := 0; i < 16; i++ {
							p1I0[i] = rI0[l]
							p1I1[i] = rI1[l]
							p1I2[i] = rI2[l]
							p1I3[i] = rI3[l]
							p1I4[i] = rI4[l]
						}
						eb8, et9 := rs2[l], re3[l]
						for eb := eb8; eb < et9; eb += 16 {
							ec := et9 - eb
							if ec > 16 {
								ec = 16
							}
							em10 := vec.FullMask(int(ec))
							tc.InnerOp(vec.ClassALU, true, em10.PopCount())
							for i := 0; i < 16; i++ {
								if em10.Bit(i) {
									p1I2[i] = eb + int32(i)
								} else {
									p1I2[i] = eb
								}
							}
							var t11 vec.Vec
							tc.GatherIP(b.EdgeDst, &p1I2, em10, true, &t11)
							var t12 vec.Vec
							tc.GatherIP(a_comp, &t11, em10, true, &t12)
							if em10.All(16) {
								for i := 0; i < 16; i++ {
									p1I3[i] = t12[i]
								}
							} else {
								tc.Op(vec.ClassBlend, true)
								for i := 0; i < 16; i++ {
									if em10.Bit(i) {
										p1I3[i] = t12[i]
									}
								}
							}
							tc.InnerOp(vec.ClassCmp, !em10.All(16), em10.PopCount())
							var k13 vec.Mask
							for i := 0; i < 16; i++ {
								if em10.Bit(i) && p1I1[i] != p1I3[i] {
									k13 = k13.Set(i)
								}
							}
							cm14 := k13
							if tm15 := em10 & cm14; tm15.Any() {
								var t16 vec.Vec
								if b.EdgeWt != nil {
									tc.GatherIP(b.EdgeWt, &p1I2, tm15, true, &t16)
								} else {
									for i := 0; i < 16; i++ {
										t16[i] = 1
									}
								}
								tc.InnerOp(vec.ClassALU, !tm15.All(16), tm15.PopCount())
								var t17 vec.Vec
								for i := 0; i < 16; i++ {
									if tm15.Bit(i) {
										t17[i] = t16[i] << (uint32(int32(24)) & 31)
									} else {
										t17[i] = t16[i]
									}
								}
								tc.InnerOp(vec.ClassALU, !tm15.All(16), tm15.PopCount())
								var t18 vec.Vec
								for i := 0; i < 16; i++ {
									if tm15.Bit(i) {
										t18[i] = t17[i] | p1I2[i]
									} else {
										t18[i] = t17[i]
									}
								}
								if tm15.All(16) {
									for i := 0; i < 16; i++ {
										p1I4[i] = t18[i]
									}
								} else {
									tc.Op(vec.ClassBlend, true)
									for i := 0; i < 16; i++ {
										if tm15.Bit(i) {
											p1I4[i] = t18[i]
										}
									}
								}
								if tm15.Any() {
									won19 := tc.AtomicMinLanesP(a_minedge, &p1I1, &p1I4, tm15)
									_ = won19
								}
							}
						}
					}
					if small7.Any() {
						tc.Op(vec.ClassScan, false)
						var offs20 vec.Vec
						tot21 := int32(0)
						for i := 0; i < 16; i++ {
							if small7.Bit(i) {
								offs20[i] = tot21
								tot21 += deg5[i]
							}
						}
						if tot21 != 0 {
							var sbuf22, ebuf23 [vec.MaxWidth * vec.MaxWidth]int32
							for l := 0; l < 16; l++ {
								if !small7.Bit(l) {
									continue
								}
								o := offs20[l]
								for j := int32(0); j < deg5[l]; j++ {
									sbuf22[o+j] = int32(l)
									ebuf23[o+j] = rs2[l] + j
								}
							}
							tc.OpN(vec.ClassVStore, false, (int(tot21)+15)/16)
							for pb := int32(0); pb < tot21; pb += 16 {
								pc := tot21 - pb
								if pc > 16 {
									pc = 16
								}
								em24 := vec.FullMask(int(pc))
								tc.OpN(vec.ClassVLoad, false, 2)
								tc.OpN(vec.ClassALU, false, kregs)
								for i := 0; i < 16; i++ {
									si := 0
									if int32(i) < pc {
										si = int(sbuf22[pb+int32(i)])
									}
									p1I0[i] = rI0[si]
									p1I1[i] = rI1[si]
									p1I2[i] = rI2[si]
									p1I3[i] = rI3[si]
									p1I4[i] = rI4[si]
								}
								for i := 0; i < 16; i++ {
									if int32(i) < pc {
										p1I2[i] = ebuf23[pb+int32(i)]
									} else {
										p1I2[i] = 0
									}
								}
								var t25 vec.Vec
								tc.GatherIP(b.EdgeDst, &p1I2, em24, true, &t25)
								var t26 vec.Vec
								tc.GatherIP(a_comp, &t25, em24, true, &t26)
								if em24.All(16) {
									for i := 0; i < 16; i++ {
										p1I3[i] = t26[i]
									}
								} else {
									tc.Op(vec.ClassBlend, true)
									for i := 0; i < 16; i++ {
										if em24.Bit(i) {
											p1I3[i] = t26[i]
										}
									}
								}
								tc.InnerOp(vec.ClassCmp, !em24.All(16), em24.PopCount())
								var k27 vec.Mask
								for i := 0; i < 16; i++ {
									if em24.Bit(i) && p1I1[i] != p1I3[i] {
										k27 = k27.Set(i)
									}
								}
								cm28 := k27
								if tm29 := em24 & cm28; tm29.Any() {
									var t30 vec.Vec
									if b.EdgeWt != nil {
										tc.GatherIP(b.EdgeWt, &p1I2, tm29, true, &t30)
									} else {
										for i := 0; i < 16; i++ {
											t30[i] = 1
										}
									}
									tc.InnerOp(vec.ClassALU, !tm29.All(16), tm29.PopCount())
									var t31 vec.Vec
									for i := 0; i < 16; i++ {
										if tm29.Bit(i) {
											t31[i] = t30[i] << (uint32(int32(24)) & 31)
										} else {
											t31[i] = t30[i]
										}
									}
									tc.InnerOp(vec.ClassALU, !tm29.All(16), tm29.PopCount())
									var t32 vec.Vec
									for i := 0; i < 16; i++ {
										if tm29.Bit(i) {
											t32[i] = t31[i] | p1I2[i]
										} else {
											t32[i] = t31[i]
										}
									}
									if tm29.All(16) {
										for i := 0; i < 16; i++ {
											p1I4[i] = t32[i]
										}
									} else {
										tc.Op(vec.ClassBlend, true)
										for i := 0; i < 16; i++ {
											if tm29.Bit(i) {
												p1I4[i] = t32[i]
											}
										}
									}
									if tm29.Any() {
										won33 := tc.AtomicMinLanesP(a_minedge, &p1I1, &p1I4, tm29)
										_ = won33
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// k_mst_union_w16 is kernel "union" of program "mst" specialized to width 16.
func k_mst_union_w16(b *Binding, tc *spmd.TaskCtx) {
	a_comp := b.Arrays["comp"]
	a_minedge := b.Arrays["minedge"]
	a_mstwt := b.Arrays["mstwt"]
	a_changed := b.Arrays["changed"]
	var rI0, rI1, rI2, rI3 vec.Vec
	var chunkBase int32
	_, _, _, _, _ = rI0, rI1, rI2, rI3, chunkBase
	tc.MarkPhase("union")
	var n int32
	n = b.NumNodes
	if n == 0 {
		return
	}
	chunksTotal := (n + 15) / 16
	chunksPer := (chunksTotal + int32(tc.Count) - 1) / int32(tc.Count)
	start := int32(tc.Index) * chunksPer * 16
	end := start + chunksPer*16
	if end > n {
		end = n
	}
	if start >= end {
		return
	}
	chunks := (end - start + 15) / 16
	fibers := (n + int32(16*tc.Count) - 1) / int32(16*tc.Count)
	if fibers > b.MaxFibers {
		fibers = b.MaxFibers
	}
	if fibers < 1 {
		fibers = 1
	}
	for f := int32(0); f < fibers; f++ {
		for ci := f; ci < chunks; ci += fibers {
			tc.ScalarOps(2)
			base := start + ci*16
			cnt := end - base
			if cnt > 16 {
				cnt = 16
			}
			if cnt <= 0 {
				continue
			}
			m0 := vec.FullMask(int(cnt))
			if b.SellPerm != nil {
				tc.LoadVecIP(b.SellPerm, base, m0, &rI0)
			} else {
				tc.Op(vec.ClassALU, false)
				for i := 0; i < 16; i++ {
					rI0[i] = base + int32(i)
				}
			}
			chunkBase = base
			tc.Work(int(cnt))
			var t1 vec.Vec
			tc.GatherIP(a_comp, &rI0, m0, false, &t1)
			tc.Op(vec.ClassCmp, !m0.All(16))
			var k2 vec.Mask
			for i := 0; i < 16; i++ {
				if m0.Bit(i) && t1[i] == rI0[i] {
					k2 = k2.Set(i)
				}
			}
			cm3 := k2
			if tm4 := m0 & cm3; tm4.Any() {
				var t5 vec.Vec
				tc.GatherIP(a_minedge, &rI0, tm4, false, &t5)
				if tm4.All(16) {
					for i := 0; i < 16; i++ {
						rI1[i] = t5[i]
					}
				} else {
					tc.Op(vec.ClassBlend, true)
					for i := 0; i < 16; i++ {
						if tm4.Bit(i) {
							rI1[i] = t5[i]
						}
					}
				}
				tc.Op(vec.ClassCmp, !tm4.All(16))
				var k6 vec.Mask
				for i := 0; i < 16; i++ {
					if tm4.Bit(i) && rI1[i] != int32(2147483647) {
						k6 = k6.Set(i)
					}
				}
				cm7 := k6
				if tm8 := tm4 & cm7; tm8.Any() {
					tc.Op(vec.ClassALU, !tm8.All(16))
					var t9 vec.Vec
					for i := 0; i < 16; i++ {
						if tm8.Bit(i) {
							t9[i] = rI1[i] & int32(16777215)
						} else {
							t9[i] = rI1[i]
						}
					}
					if tm8.All(16) {
						for i := 0; i < 16; i++ {
							rI2[i] = t9[i]
						}
					} else {
						tc.Op(vec.ClassBlend, true)
						for i := 0; i < 16; i++ {
							if tm8.Bit(i) {
								rI2[i] = t9[i]
							}
						}
					}
					var t10 vec.Vec
					tc.GatherIP(b.EdgeDst, &rI2, tm8, false, &t10)
					var t11 vec.Vec
					tc.GatherIP(a_comp, &t10, tm8, false, &t11)
					if tm8.All(16) {
						for i := 0; i < 16; i++ {
							rI3[i] = t11[i]
						}
					} else {
						tc.Op(vec.ClassBlend, true)
						for i := 0; i < 16; i++ {
							if tm8.Bit(i) {
								rI3[i] = t11[i]
							}
						}
					}
					tc.Op(vec.ClassCmp, !tm8.All(16))
					var k12 vec.Mask
					for i := 0; i < 16; i++ {
						if tm8.Bit(i) && rI3[i] < rI0[i] {
							k12 = k12.Set(i)
						}
					}
					cm13 := k12
					if tm14 := tm8 & cm13; tm14.Any() {
						if tm14.Any() {
							tc.ScatterIP(a_comp, &rI0, &rI3, tm14)
						}
						if tm14.Any() {
							tc.Op(vec.ClassReduce, false)
							tc.Op(vec.ClassALU, !tm14.All(16))
							var t15 vec.Vec
							for i := 0; i < 16; i++ {
								if tm14.Bit(i) {
									t15[i] = rI1[i] >> (uint32(int32(24)) & 31)
								} else {
									t15[i] = rI1[i]
								}
							}
							var sum16 int32
							for i := 0; i < 16; i++ {
								if tm14.Bit(i) {
									sum16 += t15[i]
								}
							}
							tc.AtomicAddScalar(a_mstwt, 0, sum16, false)
						}
						if tm14.Any() {
							tc.ScalarStoreI(a_changed, 0, 1)
						}
					}
				}
			}
		}
	}
}

// k_mst_compress_w16 is kernel "compress" of program "mst" specialized to width 16.
func k_mst_compress_w16(b *Binding, tc *spmd.TaskCtx) {
	a_comp := b.Arrays["comp"]
	var rI0 vec.Vec
	var chunkBase int32
	_, _ = rI0, chunkBase
	tc.MarkPhase("compress")
	var n int32
	n = b.NumNodes
	if n == 0 {
		return
	}
	chunksTotal := (n + 15) / 16
	chunksPer := (chunksTotal + int32(tc.Count) - 1) / int32(tc.Count)
	start := int32(tc.Index) * chunksPer * 16
	end := start + chunksPer*16
	if end > n {
		end = n
	}
	if start >= end {
		return
	}
	chunks := (end - start + 15) / 16
	fibers := (n + int32(16*tc.Count) - 1) / int32(16*tc.Count)
	if fibers > b.MaxFibers {
		fibers = b.MaxFibers
	}
	if fibers < 1 {
		fibers = 1
	}
	for f := int32(0); f < fibers; f++ {
		for ci := f; ci < chunks; ci += fibers {
			tc.ScalarOps(2)
			base := start + ci*16
			cnt := end - base
			if cnt > 16 {
				cnt = 16
			}
			if cnt <= 0 {
				continue
			}
			m0 := vec.FullMask(int(cnt))
			if b.SellPerm != nil {
				tc.LoadVecIP(b.SellPerm, base, m0, &rI0)
			} else {
				tc.Op(vec.ClassALU, false)
				for i := 0; i < 16; i++ {
					rI0[i] = base + int32(i)
				}
			}
			chunkBase = base
			tc.Work(int(cnt))
			lim1 := 4*(int64(b.NumNodes)+int64(b.NumEdges)) + 64
			act2 := m0
			for n3 := int64(0); ; n3++ {
				var t4 vec.Vec
				tc.GatherIP(a_comp, &rI0, act2, false, &t4)
				var t5 vec.Vec
				tc.GatherIP(a_comp, &t4, act2, false, &t5)
				var t6 vec.Vec
				tc.GatherIP(a_comp, &rI0, act2, false, &t6)
				tc.Op(vec.ClassCmp, !act2.All(16))
				var k7 vec.Mask
				for i := 0; i < 16; i++ {
					if act2.Bit(i) && t5[i] != t6[i] {
						k7 = k7.Set(i)
					}
				}
				act2 &= k7
				if act2.None() {
					break
				}
				if n3 >= lim1 {
					tc.Fail(fmt.Errorf("while loop exceeded %d trips (likely corrupt state): %w", lim1, fault.ErrKernelPanic))
				}
				if act2.Any() {
					var t8 vec.Vec
					tc.GatherIP(a_comp, &rI0, act2, false, &t8)
					var t9 vec.Vec
					tc.GatherIP(a_comp, &t8, act2, false, &t9)
					tc.ScatterIP(a_comp, &rI0, &t9, act2)
				}
			}
		}
	}
}
