# Runs BIN with KNOB=VALUE in its environment and passes only when BIN exits
# non-zero with a message naming the knob and the value: a harness binary
# parses its runtime knobs through RuntimeConfig::from_env and its
# bench-scale knobs through bench::bench_knob, which refuse malformed values
# instead of running some other configuration.
#
#   cmake -DBIN=<binary> -DKNOB=NVC_ADMIT -DVALUE=bogus -P expect_knob_rejected.cmake
set(ENV{${KNOB}} "${VALUE}")
execute_process(COMMAND "${BIN}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(rc EQUAL 0)
  message(FATAL_ERROR "${KNOB}=${VALUE} was accepted: ${BIN} exited 0")
endif()
string(FIND "${out}${err}" "${KNOB}=${VALUE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} exited '${rc}' without naming ${KNOB}=${VALUE}:\n${err}")
endif()
message(STATUS "${KNOB}=${VALUE} refused (exit ${rc}): ${err}")
