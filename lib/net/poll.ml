include C4_runtime.Poll
