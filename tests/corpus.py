"""Shared netlist corpus for parser tests: valid examples plus malformed
inputs with the substring their diagnostic must contain."""

VALID = [
    # 1: minimal resistive divider
    """divider
Vs n1 0 dc 1
R1 n1 n2 1k
R2 n2 0 1k
.tran 1p 10p
.end
""",
    # 2: every passive kind with suffixes
    """passives
Vs a 0 dc 0.5m
R1 a b 10k
L1 b c 0.1n
C1 c 0 1f
.tran 0.1p 5p
.end
""",
    # 3: pulse source with commas inside pulse()
    """pulse source
Vin n1 0 pulse(0, 1m, 1p, 0.2p, 0.2p, 3p, 100p)
R1 n1 0 1k
.tran 0.5p 200p
.end
""",
    # 4: qpsj with optional q0
    """qpsj card
Vb n1 0 dc 0.49m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n q0=0
.tran 1p 100p
.end
""",
    # 5: jj with optional phi0
    """jj card
Ib 0 n1 dc 100u
jj J1 n1 0 ic=200u rn=5 cj=1f phi0=0.5
.tran 0.01p 10p
.end
""",
    # 6: mjj with states list
    """mjj card
Ib 0 n1 dc 140u
mjj J1 n1 0 states=200u,300u state=1 rn=7 cj=1f
.tran 0.05p 10p
.end
""",
    # 7: comments, blank lines and continuations
    """comments and continuations
* a comment line
Vs n1 0
+ dc 2m

R1 n1 0
+ 2k
.tran 1p 20p
.end
""",
    # 8: .save probes and three-argument .tran
    """probes
Vs n1 0 dc 1m
R1 n1 n2 1k
R2 n2 0 1k
.tran 1p 50p 10p
.save v(n2) i(R1) v(0)
.end
""",
    # 9: mixed-case names and meg suffix
    """Mixed Case
VS N1 0 DC 1M
R1 N1 N2 1MEG
r2 n2 0 1meg
.TRAN 1P 10P
.END
""",
    # 10: current source pulse
    """isource pulse
Iin 0 n1 pulse(0 50u 5p 1p 1p 2p 40p)
R1 n1 0 100
C1 n1 0 10f
.tran 0.2p 100p
.end
""",
    # 11: trailing text after .end is ignored
    """trailing garbage
Vs n1 0 dc 1m
R1 n1 0 1k
.tran 1p 10p
.end
this line is not part of the netlist
neither is this
""",
    # 12: scientific notation and signs
    """numbers
Vs n1 0 dc +1.5e-3
R1 n1 n2 1e3
R2 n2 0 .5k
.tran 1e-12 1e-11
.end
""",
]

INVALID = [
    ("""missing end
R1 n1 0 1k
.tran 1p 10p
""", "missing .end"),
    ("""duplicate name
Vs n1 0 dc 1m
R1 n1 0 1k
r1 n1 0 2k
.tran 1p 10p
.end
""", "duplicate device name"),
    ("""duplicate tran
Vs n1 0 dc 1m
R1 n1 0 1k
.tran 1p 10p
.tran 1p 20p
.end
""", "duplicate .tran"),
    ("""bad value
R1 n1 0 1x
.tran 1p 10p
.end
""", "malformed value"),
    ("""bad directive
R1 n1 0 1k
.flop 1 2
.end
""", "unknown directive"),
    ("""leading continuation
+ R1 n1 0 1k
.tran 1p 10p
.end
""", "continuation"),
    ("""bad pulse arity
Vs n1 0 pulse(0 1m 1p)
R1 n1 0 1k
.tran 1p 10p
.end
""", "pulse() takes 7 arguments"),
    ("""bad source form
Vs n1 0 ac 1m
R1 n1 0 1k
.tran 1p 10p
.end
""", "expected 'dc <value>' or 'pulse(...)'"),
    ("""missing junction param
Vb n1 0 dc 0.5m
qpsj Q1 n1 0 vc=0.7m rn=10k
.tran 1p 10p
.end
""", "missing required parameter"),
    ("""unknown junction param
Vb n1 0 dc 0.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n beta=2
.tran 1p 10p
.end
""", "unknown parameter"),
    ("""bad state index type
Ib 0 n1 dc 1u
mjj J1 n1 0 states=1u,2u state=one rn=7 cj=1f
.tran 1p 10p
.end
""", "state index must be an integer"),
    ("""bad probe
R1 n1 0 1k
.save q(n1)
.tran 1p 10p
.end
""", "bad probe"),
    ("""unknown card
Q1 n1 0 1k
.tran 1p 10p
.end
""", "unknown device kind"),
    ("""short resistor card
R1 n1 0
.tran 1p 10p
.end
""", "expected '<name> n+ n- <value>'"),
]

# inputs that parse but must fail elaboration, with the diagnostic substring
INVALID_ELABORATE = [
    ("""no tran
Vs n1 0 dc 1m
R1 n1 0 1k
.end
""", "exactly one .tran"),
    ("""dangling node
Vs n1 0 dc 1m
R1 n1 n2 1k
R2 n1 0 1k
.tran 1p 10p
.end
""", "dangling node"),
    ("""no ground
Vs n1 n2 dc 1m
R1 n1 n2 1k
.tran 1p 10p
.end
""", "ground"),
    ("""unknown save target
Vs n1 0 dc 1m
R1 n1 0 1k
.tran 1p 10p
.save v(nx)
.end
""", "unknown node"),
    ("""nonpositive resistor
Vs n1 0 dc 1m
R1 n1 0 0
.tran 1p 10p
.end
""", "must be positive"),
    ("""state out of range
Ib 0 n1 dc 1u
mjj J1 n1 0 states=1u,2u state=5 rn=7 cj=1f
.tran 1p 10p
.end
""", "out of range"),
    ("""bad tran step
Vs n1 0 dc 1m
R1 n1 0 1k
.tran 10p 5p
.end
""", "tstop must exceed tstep"),
    ("""tran starts after it stops
Vb n1 0 dc 1.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0
.tran 0.01p 5p 20p
.end
""", "tstart must not exceed tstop"),
    ("""non-finite tran stop
Vs n1 0 dc 1m
R1 n1 0 1k
.tran 1p 1e999
.end
""", ".tran: non-finite value"),
    ("""negative qpsj inductance
Vb n1 0 dc 0.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=-0.1n
.tran 1p 10p
.end
""", "parameter ls must be non-negative"),
    ("""negative jj capacitance
Ib 0 n1 dc 100u
jj J1 n1 0 ic=200u rn=5 cj=-1f
.tran 1p 10p
.end
""", "parameter cj must be non-negative"),
    ("""zero jj critical current
Ib 0 n1 dc 100u
jj J1 n1 0 ic=0 rn=5 cj=1f
.tran 1p 10p
.end
""", "parameter ic must be positive"),
    ("""empty mjj states
Ib 0 n1 dc 1u
mjj J1 n1 0 states= state=0 rn=7 cj=1f
.tran 1p 10p
.end
""", "states list is empty"),
    ("""negative mjj state
Ib 0 n1 dc 1u
mjj J1 n1 0 states=1u,-2u state=0 rn=7 cj=1f
.tran 1p 10p
.end
""", "parameter states must be positive"),
    ("""non-finite qpsj charge
Vb n1 0 dc 0.5m
qpsj Q1 n1 0 vc=0.7m rn=10k ls=0.1n q0=1e999
.tran 1p 10p
.end
""", "non-finite value for q0"),
    ("""source shorted on ground
V1 0 0 dc 1m
R1 n1 0 1k
R2 n1 0 1k
.tran 1p 10p
.end
""", "v1: both terminals on node '0'"),
    ("""resistor alone on ground
R1 0 0 1k
.tran 1p 10p
.end
""", "r1: both terminals on node '0'"),
    ("""resistor across one node
Vs n1 0 dc 1m
R1 n1 n1 1k
R2 n1 0 1k
.tran 1p 10p
.end
""", "r1: both terminals on node 'n1'"),
    ("""negative pulse tr
Vs n1 0 pulse(0 1m 10p -1p 1p 5p 50p)
R1 n1 0 1k
.tran 1p 100p
.end
""", "vs: pulse tr must be non-negative"),
    ("""negative pulse tf
Vs n1 0 pulse(0 1m 10p 1p -1p 5p 50p)
R1 n1 0 1k
.tran 1p 100p
.end
""", "vs: pulse tf must be non-negative"),
    ("""negative pulse pw
Vs n1 0 pulse(0 1m 10p 1p 1p -5p 50p)
R1 n1 0 1k
.tran 1p 100p
.end
""", "vs: pulse pw must be non-negative"),
    ("""negative pulse per
Vs n1 0 pulse(0 1m 10p 1p 1p 5p -50p)
R1 n1 0 1k
.tran 1p 100p
.end
""", "vs: pulse per must be non-negative"),
]
