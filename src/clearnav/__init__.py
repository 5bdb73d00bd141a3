"""Risk-aware 2D navigation on noisy range sensing.

Pipeline: a synthetic world simulator with a biased range sensor feeds a
probabilistic worst-case clearance model; an empirical-MMD risk metric turns
its predictions into collision risk; a sampling-based MPC planner minimizes
goal cost plus risk; a benchmark harness compares training variants.
"""
